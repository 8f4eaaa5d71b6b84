//! End-to-end pipeline test: generator → storage → every algorithm,
//! checked against the brute-force oracle and against each other on a real
//! (small) road-network workload.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup::core::algorithm::CtupAlgorithm;
use ctup::core::config::CtupConfig;
use ctup::core::naive::{NaiveIncremental, NaiveRecompute};
use ctup::core::oracle::Oracle;
use ctup::core::types::{LocationUpdate, Safety, UnitId};
use ctup::core::{BasicCtup, OptCtup};
use ctup::mogen::{PlaceGenConfig, Workload, WorkloadParams};
use ctup::spatial::{Grid, Point};
use ctup::storage::{CellLocalStore, PlaceStore};
use std::sync::Arc;

fn workload(seed: u64) -> (Workload, Arc<dyn PlaceStore>, Vec<Point>) {
    let params = WorkloadParams {
        num_units: 25,
        places: PlaceGenConfig {
            count: 1_500,
            ..PlaceGenConfig::default()
        },
        seed,
        ..WorkloadParams::default()
    };
    let workload = Workload::generate(params);
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(8),
        workload.places_vec(),
    ));
    let units = workload.unit_positions();
    (workload, store, units)
}

#[test]
fn all_algorithms_track_the_oracle_on_a_road_workload() {
    let (mut workload, store, mut units) = workload(11);
    let config = CtupConfig::with_k(10);
    let oracle = Oracle::from_store(store.as_ref()).expect("clean store");

    let mut algs: Vec<Box<dyn CtupAlgorithm>> = vec![
        Box::new(NaiveRecompute::new(config.clone(), store.clone(), &units).expect("clean store")),
        Box::new(
            NaiveIncremental::new(config.clone(), store.clone(), &units).expect("clean store"),
        ),
        Box::new(BasicCtup::new(config.clone(), store.clone(), &units).expect("clean store")),
        Box::new(OptCtup::new(config.clone(), store.clone(), &units).expect("clean store")),
    ];
    for alg in &algs {
        oracle.assert_result_matches(&alg.result(), &units, 0.1, 10);
    }

    for (step, update) in workload.next_updates(400).into_iter().enumerate() {
        let location_update = LocationUpdate {
            unit: UnitId(update.object),
            new: update.to,
        };
        units[update.object as usize] = update.to;
        for alg in algs.iter_mut() {
            alg.handle_update(location_update).expect("clean store");
        }
        // Cheap cross-check every step; full oracle check periodically.
        let reference: Vec<Safety> = algs[0].result().iter().map(|e| e.safety).collect();
        for alg in &algs[1..] {
            let got: Vec<Safety> = alg.result().iter().map(|e| e.safety).collect();
            assert_eq!(got, reference, "{} diverged at step {step}", alg.name());
        }
        if step % 50 == 0 {
            for alg in &algs {
                oracle.assert_result_matches(&alg.result(), &units, 0.1, 10);
            }
        }
    }
    for alg in &algs {
        oracle.assert_result_matches(&alg.result(), &units, 0.1, 10);
        assert_eq!(alg.metrics().updates_processed, 400);
    }
}

#[test]
fn grid_schemes_do_less_work_than_the_baselines() {
    let (mut workload, store, units) = workload(12);
    let config = CtupConfig::paper_default();
    let mut basic = BasicCtup::new(config.clone(), store.clone(), &units).expect("clean store");
    let mut opt = OptCtup::new(config.clone(), store.clone(), &units).expect("clean store");
    let io_before = store.stats().snapshot();
    for update in workload.next_updates(500) {
        let location_update = LocationUpdate {
            unit: UnitId(update.object),
            new: update.to,
        };
        basic.handle_update(location_update).expect("clean store");
        opt.handle_update(location_update).expect("clean store");
    }
    let io = store.stats().snapshot().since(&io_before);
    // Grid schemes touch the lower level far less often than once per
    // update-and-place: 500 updates over 64 cells must not read more than
    // a few thousand cells in total (the naive baseline would read
    // 64 cells * 500 updates = 32000).
    assert!(
        io.cell_reads < 6_000,
        "grid schemes read {} cells",
        io.cell_reads
    );
    // Opt maintains fewer or equally many places than Basic *per cell it
    // covers*; globally it must stay well below the full place count.
    assert!(opt.maintained_places() < store.num_places() / 2);
    assert!(basic.maintained_places() < store.num_places());
}

#[test]
fn adversarial_teleport_stream_stays_correct() {
    // Teleports have no spatial locality at all — every update crosses many
    // cells and flips many relations, the worst case for lower-bound
    // maintenance. Correctness must not depend on locality.
    let params = WorkloadParams {
        num_units: 20,
        places: PlaceGenConfig {
            count: 1_000,
            ..PlaceGenConfig::default()
        },
        seed: 14,
        ..WorkloadParams::default()
    };
    let workload = Workload::generate(params);
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(8),
        workload.places_vec(),
    ));
    let mut units = workload.unit_positions();
    let oracle = Oracle::from_store(store.as_ref()).expect("clean store");
    let config = CtupConfig::with_k(10);
    let mut basic = BasicCtup::new(config.clone(), store.clone(), &units).expect("clean store");
    let mut opt = OptCtup::new(config, store, &units).expect("clean store");

    // The monitors resolve old positions from their own unit tables, so
    // only the stream's absolute target positions matter here.
    let mut teleports = ctup::mogen::TeleportSim::new(20, 14);
    for (step, update) in teleports.collect_updates(300).into_iter().enumerate() {
        let location_update = LocationUpdate {
            unit: UnitId(update.object),
            new: update.to,
        };
        units[update.object as usize] = update.to;
        basic.handle_update(location_update).expect("clean store");
        opt.handle_update(location_update).expect("clean store");
        oracle.assert_result_matches(&basic.result(), &units, 0.1, 10);
        oracle.assert_result_matches(&opt.result(), &units, 0.1, 10);
        if step % 100 == 0 {
            basic.check_lb_invariant();
            opt.check_lb_invariant();
        }
    }
    basic.check_lb_invariant();
    opt.check_lb_invariant();
}
