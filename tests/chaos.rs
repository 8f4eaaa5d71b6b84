//! Chaos suite: the supervised pipeline under a degraded feed.
//!
//! A seeded [`FaultPlan`] drops, duplicates, reorders and corrupts the wire
//! stream, and the supervisor is crashed mid-run. The surviving monitor
//! must be *exactly* right: its final top-k is checked against the
//! brute-force oracle evaluated on the effective update sequence — the
//! updates that survive the ingest gate (validation, dedup, liveness
//! leases) — reproduced independently by a mirror gate in the test.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup::core::config::{CtupConfig, QueryMode};
use ctup::core::ingest::{stamp_stream, IngestConfig, IngestGate, StampedUpdate};
use ctup::core::metrics::ResilienceStats;
use ctup::core::supervisor::{ResilienceConfig, SupervisedPipeline};
use ctup::core::types::{LocationUpdate, UnitId};
use ctup::core::{DurableState, OptCtup, Oracle};
use ctup::mogen::{FaultPlan, PlaceGenConfig, SeededRng, Workload, WorkloadParams};
use ctup::spatial::{Grid, Point};
use ctup::storage::{
    CellLocalStore, DiskFaultPlan, FaultDisk, PlaceStore, RetryPolicy, StorageError,
};
use std::sync::Arc;

const NUM_UNITS: u32 = 25;
const RADIUS: f64 = 0.1;

fn setup(seed: u64) -> (Workload, Arc<dyn PlaceStore>) {
    let workload = Workload::generate(WorkloadParams {
        num_units: NUM_UNITS,
        places: PlaceGenConfig {
            count: 1_500,
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

/// Randomly poisons a wire report: NaN coordinate, position far outside
/// the monitored space, or an unknown unit id. All three must be caught by
/// the ingest gate's validation.
fn corrupt_report(report: &mut StampedUpdate, rng: &mut SeededRng) {
    match rng.gen_range(0..3) {
        0 => report.update.new = Point::new(f64::NAN, report.update.new.y),
        1 => report.update.new = Point::new(5.0, 5.0),
        _ => report.update.unit = UnitId(10_000),
    }
}

/// The chaos scenario for one seed: generate, stamp, degrade, survive.
fn run_chaos(seed: u64) {
    let (mut workload, store) = setup(seed);
    let units = workload.unit_positions();

    // Clean stamped stream, then the degraded delivery of it.
    let clean: Vec<LocationUpdate> = workload
        .next_updates(600)
        .into_iter()
        .map(|u| LocationUpdate {
            unit: UnitId(u.object),
            new: u.to,
        })
        .collect();
    let plan = FaultPlan {
        seed: seed ^ 0xFA17,
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

    // Mirror gate: reproduce the effective update sequence independently
    // and track where every unit ends up (parked units included).
    let mut mirror = IngestGate::new(IngestConfig {
        space: *store.grid().space(),
        num_units: NUM_UNITS as usize,
        lease_ttl: Some(150),
    });
    let mut mirror_stats = ResilienceStats::default();
    let mut positions = units.clone();
    let mut effective_count = 0u64;
    for &wire in &degraded {
        if let Ok(effective) = mirror.admit(wire, &mut mirror_stats) {
            for update in effective {
                positions[update.unit.index()] = update.new;
                effective_count += 1;
            }
        }
    }
    let oracle = Oracle::from_store(store.as_ref()).expect("clean store");

    // The supervised pipeline rides the degraded feed and is crashed once,
    // without a state directory and with one, where `checkpoint_every`
    // lands durable slots.
    for durable in [false, true] {
        let dir =
            std::env::temp_dir().join(format!("ctup-chaos-feed-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let resilience = ResilienceConfig {
            lease_ttl: Some(150),
            checkpoint_every: 64,
            max_restarts: 8,
            panic_at: vec![50],
            state_dir: durable.then(|| dir.clone()),
            ..ResilienceConfig::default()
        };
        let monitor =
            OptCtup::new(CtupConfig::with_k(10), store.clone(), &units).expect("clean store");
        let pipeline = SupervisedPipeline::spawn(monitor, resilience, 4096);
        for &report in &degraded {
            pipeline.send(report).expect("worker alive");
        }
        let report = pipeline.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        let run = format!("seed {seed}, durable {durable}");
        assert!(!report.gave_up, "{run}: supervisor gave up");
        assert_eq!(report.reports_received, degraded.len() as u64);
        assert_eq!(report.metrics.resilience.worker_panics, 1);
        assert_eq!(report.metrics.resilience.worker_restarts, 1);
        // A self-heal is one re-initialization: nothing is replayed, and
        // each effective update is counted once across it (below).
        assert_eq!(report.metrics.resilience.updates_replayed, 0);
        assert_eq!(
            report.metrics.resilience.checkpoints_taken > 0,
            durable,
            "{run}: slots only with a state directory"
        );
        assert_eq!(
            report.updates_processed, effective_count,
            "{run}: pipeline and mirror disagree on the effective sequence"
        );
        // The gate-level counters must match the mirror exactly.
        let r = &report.metrics.resilience;
        for (name, got, want) in [
            (
                "rejected_non_finite",
                r.rejected_non_finite,
                mirror_stats.rejected_non_finite,
            ),
            (
                "rejected_out_of_space",
                r.rejected_out_of_space,
                mirror_stats.rejected_out_of_space,
            ),
            (
                "rejected_unknown_unit",
                r.rejected_unknown_unit,
                mirror_stats.rejected_unknown_unit,
            ),
            ("stale_dropped", r.stale_dropped, mirror_stats.stale_dropped),
            (
                "duplicates_dropped",
                r.duplicates_dropped,
                mirror_stats.duplicates_dropped,
            ),
            (
                "lease_expiries",
                r.lease_expiries,
                mirror_stats.lease_expiries,
            ),
            (
                "lease_reinstates",
                r.lease_reinstates,
                mirror_stats.lease_reinstates,
            ),
        ] {
            assert_eq!(got, want, "{run}: {name} mismatch");
        }
        // Dedup must have caught at least the duplicates the plan injected
        // that were not preceded by a drop of their original.
        assert!(
            r.duplicates_dropped + r.stale_dropped > 0,
            "{run}: no dedup exercised"
        );

        // Ground truth: the oracle on the final effective unit positions.
        oracle.assert_result_matches(
            &report.final_result,
            &positions,
            RADIUS,
            QueryMode::TopK(10),
        );
    }
}

#[test]
fn survives_degraded_feed_seed_1() {
    run_chaos(1);
}

#[test]
fn survives_degraded_feed_seed_2() {
    run_chaos(2);
}

#[test]
fn survives_degraded_feed_seed_3() {
    run_chaos(3);
}

/// Leases under silence: cutting one unit's reports out of the feed
/// entirely must retract its protection — the monitor ends up agreeing
/// with an oracle that has the unit parked, not where it last reported.
#[test]
fn silent_unit_is_parked_and_result_stays_truthful() {
    let (mut workload, store) = setup(42);
    let units = workload.unit_positions();
    let clean: Vec<LocationUpdate> = workload
        .next_updates(400)
        .into_iter()
        .map(|u| LocationUpdate {
            unit: UnitId(u.object),
            new: u.to,
        })
        .collect();
    // Unit 0 goes silent after its first 2 reports.
    let mut seen = 0;
    let muted: Vec<StampedUpdate> = stamp_stream(clean)
        .into_iter()
        .filter(|r| {
            if r.update.unit != UnitId(0) {
                return true;
            }
            seen += 1;
            seen <= 2
        })
        .collect();

    let resilience = ResilienceConfig {
        lease_ttl: Some(100),
        ..ResilienceConfig::default()
    };
    let monitor = OptCtup::new(CtupConfig::with_k(10), store.clone(), &units).expect("clean store");
    let pipeline = SupervisedPipeline::spawn(monitor, resilience, 4096);
    for &report in &muted {
        pipeline.send(report).expect("worker alive");
    }
    let report = pipeline.shutdown();
    assert!(!report.gave_up);
    assert!(
        report.metrics.resilience.lease_expiries > 0,
        "the muted unit's lease never expired (TTL too long for this stream?)"
    );

    // Mirror to get final positions, then check the oracle agrees.
    let mut mirror = IngestGate::new(IngestConfig {
        space: *store.grid().space(),
        num_units: NUM_UNITS as usize,
        lease_ttl: Some(100),
    });
    let mut stats = ResilienceStats::default();
    let mut positions = units.clone();
    for &wire in &muted {
        if let Ok(effective) = mirror.admit(wire, &mut stats) {
            for update in effective {
                positions[update.unit.index()] = update.new;
            }
        }
    }
    assert!(
        !mirror.is_alive(UnitId(0)),
        "unit 0 should have lost its lease"
    );
    let oracle = Oracle::from_store(store.as_ref()).expect("clean store");
    oracle.assert_result_matches(
        &report.final_result,
        &positions,
        RADIUS,
        QueryMode::TopK(10),
    );
}

/// Storage-fault matrix, transient case: the disk fails 5% of page reads
/// per attempt behind the default 3-retry backoff policy. Retries absorb
/// (nearly) everything; any give-up is contained by the supervisor exactly
/// like a worker panic — so the final top-k is still oracle-exact.
#[test]
fn transient_read_errors_are_retried_and_contained() {
    let mut workload = Workload::generate(WorkloadParams {
        num_units: NUM_UNITS,
        places: PlaceGenConfig {
            count: 1_500,
            ..PlaceGenConfig::default()
        },
        seed: 11,
        ..WorkloadParams::default()
    });
    let disk = Arc::new(FaultDisk::build(
        Grid::unit_square(8),
        workload.places_vec(),
        0,
        DiskFaultPlan {
            seed: 0xD15C,
            read_error_prob: 0.05,
            ..DiskFaultPlan::default()
        },
        RetryPolicy::default(),
    ));
    assert!(disk.corrupted_pages().is_empty(), "no build-time damage");
    let store: Arc<dyn PlaceStore> = disk.clone();
    let units = workload.unit_positions();
    let clean: Vec<LocationUpdate> = workload
        .next_updates(600)
        .into_iter()
        .map(|u| LocationUpdate {
            unit: UnitId(u.object),
            new: u.to,
        })
        .collect();

    let monitor = OptCtup::new(CtupConfig::with_k(10), store.clone(), &units)
        .expect("transient faults are absorbed by retries at init");
    let pipeline = SupervisedPipeline::spawn(monitor, ResilienceConfig::default(), 4096);
    for &report in &stamp_stream(clean.clone()) {
        pipeline.send(report).expect("worker alive");
    }
    let report = pipeline.shutdown();
    assert!(!report.gave_up, "retry budget must carry the run");
    assert_eq!(report.updates_processed, 600);

    let snap = disk.stats().snapshot();
    assert!(snap.read_retries > 0, "a 5% fault rate must force retries");
    assert_eq!(snap.corrupt_pages, 0, "transient faults are not corruption");
    // Any reads that exhausted the retry budget were contained as storage
    // errors (checkpoint-restore-replay), never silently mis-served.
    let r = &report.metrics.resilience;
    assert_eq!(r.worker_panics, 0);
    assert!(r.storage_errors <= r.worker_restarts);

    // Clean stream + no leases: every update is effective; ground truth is
    // simply the last reported position of each unit.
    let mut positions = units.clone();
    for update in &clean {
        positions[update.unit.index()] = update.new;
    }
    let oracle = Oracle::from_store(store.as_ref()).expect("bulk scan skips transient faults");
    oracle.assert_result_matches(
        &report.final_result,
        &positions,
        RADIUS,
        QueryMode::TopK(10),
    );
}

/// Storage-fault matrix, persistent case: torn page writes and bit flips
/// damage the disk at build time. Every read of a damaged cell must fail
/// with a typed corruption error — zero silently wrong reads — while the
/// undamaged cells still serve records identical to the in-memory store.
#[test]
fn build_time_corruption_is_always_detected_never_served() {
    let workload = Workload::generate(WorkloadParams {
        num_units: NUM_UNITS,
        places: PlaceGenConfig {
            count: 1_500,
            ..PlaceGenConfig::default()
        },
        seed: 13,
        ..WorkloadParams::default()
    });
    let places = workload.places_vec();
    let disk = FaultDisk::build(
        Grid::unit_square(8),
        places.clone(),
        0,
        DiskFaultPlan {
            seed: 99,
            torn_writes: 3,
            bit_flips: 3,
            ..DiskFaultPlan::default()
        },
        RetryPolicy::default(),
    );
    let damaged = disk.corrupted_cells();
    assert!(
        !damaged.is_empty(),
        "the plan must damage at least one cell"
    );

    let mirror = CellLocalStore::build(Grid::unit_square(8), places);
    for cell in disk.grid().cells().collect::<Vec<_>>() {
        match disk.read_cell(cell) {
            Ok(got) => {
                assert!(
                    !damaged.contains(&cell),
                    "damaged cell {cell:?} served records"
                );
                let want = mirror.read_cell(cell).expect("mem store");
                assert_eq!(got.as_ref(), want.as_ref(), "cell {cell:?}");
            }
            Err(e) => {
                assert!(matches!(e, StorageError::CorruptPage { .. }), "{e}");
                assert!(damaged.contains(&cell), "clean cell {cell:?} failed: {e}");
            }
        }
    }
    let snap = disk.stats().snapshot();
    assert!(snap.corrupt_pages > 0);
    assert!(
        snap.read_giveups > 0,
        "corruption is permanent, not retried"
    );

    // A monitor cannot even be initialized over the damaged store: the
    // full-cell init scan hits the corruption and surfaces it as a value.
    let units = workload.unit_positions();
    match OptCtup::new(CtupConfig::with_k(10), Arc::new(disk), &units) {
        Ok(_) => panic!("init over a corrupt store must fail"),
        Err(e) => assert!(matches!(e, StorageError::CorruptPage { .. }), "{e}"),
    }
}

/// Durable kill-and-restart: the worker dies abruptly mid-stream, the
/// newest checkpoint slot is torn as by a death mid-checkpoint-write, and
/// a fresh pipeline recovers from the surviving A/B slot plus the journal
/// tail. The recovered pipeline is killed again, so the second recovery
/// reads a directory a recovered process wrote in place. Re-delivering the
/// full feed (the gate dedups the already covered prefix) must converge to
/// the oracle of the uninterrupted run, over the in-memory store and over
/// a disk failing 5% of page reads, where retried reads and contained
/// storage errors change which reads happen, never the answer.
#[test]
#[cfg_attr(miri, ignore = "touches real files and spawns threads")]
fn kill_mid_checkpoint_write_recovers_from_surviving_slot() {
    let (mut workload, memory) = setup(7);
    let faulty_disk: Arc<dyn PlaceStore> = Arc::new(FaultDisk::build(
        Grid::unit_square(8),
        workload.places_vec(),
        0,
        DiskFaultPlan {
            seed: 0xD15C,
            read_error_prob: 0.05,
            ..DiskFaultPlan::default()
        },
        RetryPolicy::default(),
    ));
    let units = workload.unit_positions();
    let clean: Vec<LocationUpdate> = workload
        .next_updates(600)
        .into_iter()
        .map(|u| LocationUpdate {
            unit: UnitId(u.object),
            new: u.to,
        })
        .collect();
    let stamped = stamp_stream(clean.clone());
    for (tag, store) in [("memory", memory), ("faulty-disk", faulty_disk)] {
        let dir =
            std::env::temp_dir().join(format!("ctup-chaos-durable-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let resilience = ResilienceConfig {
            checkpoint_every: 48,
            state_dir: Some(dir.clone()),
            kill_at: Some(300),
            ..ResilienceConfig::default()
        };
        let monitor = OptCtup::new(CtupConfig::with_k(10), store.clone(), &units)
            .expect("transient faults are absorbed by retries at init");
        let pipeline = SupervisedPipeline::spawn(monitor, resilience, 4096);
        for &report in &stamped {
            if pipeline.send(report).is_err() {
                break; // the kill fired; the worker is gone
            }
        }
        let report = pipeline.shutdown();
        assert!(report.killed, "{tag}: kill_at must halt the worker");
        assert!(!report.gave_up, "{tag}");
        assert!(
            report.final_result.is_empty(),
            "{tag}: a killed worker reports no result"
        );
        // Nothing writes the directory once the worker is dead: tearing
        // the newest slot now is a death mid-checkpoint-write.
        DurableState::tear_newest_slot(&dir).expect("tear the newest slot");

        // Recovery in a "new process": load the surviving slot, replay the
        // journal tail, then re-deliver the whole feed, which the first
        // recovered process dies in, 100 effective updates past its
        // restart.
        let recover = |kill_at| {
            let resilience = ResilienceConfig {
                checkpoint_every: 48,
                state_dir: Some(dir.clone()),
                kill_at,
                ..ResilienceConfig::default()
            };
            SupervisedPipeline::recover_from_dir::<OptCtup>(&dir, store.clone(), resilience, 4096)
                .expect("recover from the surviving slot")
        };
        let pipeline = recover(Some(100));
        for &report in &stamped {
            if pipeline.send(report).is_err() {
                break;
            }
        }
        let report = pipeline.shutdown();
        assert!(
            report.killed,
            "{tag}: the recovered worker must die at its kill_at"
        );
        // The torn slot leaves a journal tail past the surviving one. The
        // second death tears nothing, so its newest slot may cover every
        // journaled report and the last recovery may replay none.
        assert!(
            report.metrics.resilience.updates_replayed > 0,
            "{tag}: the journal tail must be replayed"
        );

        let pipeline = recover(None);
        for &report in &stamped {
            pipeline.send(report).expect("recovered worker alive");
        }
        let report = pipeline.shutdown();
        assert!(!report.gave_up && !report.killed, "{tag}");
        let r = &report.metrics.resilience;
        assert!(
            r.duplicates_dropped + r.stale_dropped > 0,
            "{tag}: re-delivered prefix must be deduplicated by the gate"
        );

        let mut positions = units.clone();
        for update in &clean {
            positions[update.unit.index()] = update.new;
        }
        let oracle = Oracle::from_store(store.as_ref()).expect("bulk scan skips transient faults");
        oracle.assert_result_matches(
            &report.final_result,
            &positions,
            RADIUS,
            QueryMode::TopK(10),
        );
        let retries = store.stats().snapshot().read_retries;
        assert_eq!(
            retries > 0,
            tag == "faulty-disk",
            "{tag}: {retries} retries"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
