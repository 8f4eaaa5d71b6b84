//! Degenerate-configuration edge cases: empty place sets, k larger than
//! |P|, a single cell, protection ranges covering the whole space, one
//! unit. All schemes must agree with the oracle and never panic.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup::core::algorithm::CtupAlgorithm;
use ctup::core::config::{CtupConfig, QueryMode};
use ctup::core::naive::{NaiveIncremental, NaiveRecompute};
use ctup::core::oracle::Oracle;
use ctup::core::types::{LocationUpdate, Place, PlaceId, UnitId};
use ctup::core::{BasicCtup, OptCtup};
use ctup::spatial::{Grid, Point};
use ctup::storage::{CellLocalStore, PlaceStore};
use std::sync::Arc;

fn all_algorithms(
    config: &CtupConfig,
    store: &Arc<dyn PlaceStore>,
    units: &[Point],
) -> Vec<Box<dyn CtupAlgorithm>> {
    vec![
        Box::new(NaiveRecompute::new(config.clone(), store.clone(), units).expect("clean store")),
        Box::new(NaiveIncremental::new(config.clone(), store.clone(), units).expect("clean store")),
        Box::new(BasicCtup::new(config.clone(), store.clone(), units).expect("clean store")),
        Box::new(OptCtup::new(config.clone(), store.clone(), units).expect("clean store")),
    ]
}

fn drive_and_check(
    config: CtupConfig,
    store: Arc<dyn PlaceStore>,
    mut units: Vec<Point>,
    moves: &[(u32, Point)],
) {
    let oracle = Oracle::from_store(store.as_ref()).expect("clean store");
    let mut algs = all_algorithms(&config, &store, &units);
    let radius = config.protection_radius;
    for alg in &algs {
        oracle.assert_result_matches(&alg.result(), &units, radius, config.mode);
    }
    for &(unit, new) in moves {
        units[unit as usize] = new;
        for alg in algs.iter_mut() {
            alg.handle_update(LocationUpdate {
                unit: UnitId(unit),
                new,
            })
            .expect("clean store");
            oracle.assert_result_matches(&alg.result(), &units, radius, config.mode);
        }
    }
}

fn jagged_moves() -> Vec<(u32, Point)> {
    vec![
        (0, Point::new(0.9, 0.9)),
        (0, Point::new(0.1, 0.9)),
        (0, Point::new(0.5, 0.5)),
        (0, Point::new(0.500001, 0.5)),
        (0, Point::new(0.0, 0.0)),
        (0, Point::new(1.0, 1.0)),
    ]
}

#[test]
fn empty_place_set() {
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(Grid::unit_square(4), vec![]));
    drive_and_check(
        CtupConfig::with_k(5),
        store,
        vec![Point::new(0.5, 0.5)],
        &jagged_moves(),
    );
}

#[test]
fn k_larger_than_place_count() {
    let places = vec![
        Place::point(PlaceId(0), Point::new(0.2, 0.2), 3),
        Place::point(PlaceId(1), Point::new(0.8, 0.8), 1),
    ];
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(Grid::unit_square(4), places));
    drive_and_check(
        CtupConfig::with_k(10),
        store,
        vec![Point::new(0.5, 0.5)],
        &jagged_moves(),
    );
}

#[test]
fn single_cell_grid() {
    let places: Vec<Place> = (0..30)
        .map(|i| Place::point(PlaceId(i), Point::new(i as f64 / 30.0, 0.5), 1 + i % 4))
        .collect();
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(Grid::unit_square(1), places));
    drive_and_check(
        CtupConfig::with_k(5),
        store,
        vec![Point::new(0.5, 0.5), Point::new(0.1, 0.5)],
        &jagged_moves(),
    );
}

#[test]
fn protection_range_covering_the_whole_space() {
    // Every unit protects everything: all relations are Full everywhere.
    let places: Vec<Place> = (0..20)
        .map(|i| Place::point(PlaceId(i), Point::new(i as f64 / 20.0, 0.3), 1 + i % 3))
        .collect();
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(Grid::unit_square(5), places));
    let config = CtupConfig {
        protection_radius: 2.0,
        ..CtupConfig::with_k(4)
    };
    drive_and_check(config, store, vec![Point::new(0.5, 0.5)], &jagged_moves());
}

#[test]
fn tiny_protection_range() {
    let places: Vec<Place> = (0..20)
        .map(|i| Place::point(PlaceId(i), Point::new(i as f64 / 20.0, 0.5), 1))
        .collect();
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(Grid::unit_square(5), places));
    let config = CtupConfig {
        protection_radius: 1e-6,
        ..CtupConfig::with_k(3)
    };
    drive_and_check(config, store, vec![Point::new(0.5, 0.5)], &jagged_moves());
}

#[test]
fn stacked_places_and_units() {
    // Many places at the same position, unit exactly on top of them.
    let places: Vec<Place> = (0..10)
        .map(|i| Place::point(PlaceId(i), Point::new(0.5, 0.5), i))
        .collect();
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(Grid::unit_square(3), places));
    let units = vec![Point::new(0.5, 0.5), Point::new(0.5, 0.5)];
    let oracle = Oracle::from_store(store.as_ref()).expect("clean store");
    let config = CtupConfig::with_k(4);
    let mut algs = all_algorithms(&config, &store, &units);
    let mut positions = units;
    // Move both units off and back on the stack.
    for &(unit, new) in &[
        (0u32, Point::new(0.9, 0.9)),
        (1, Point::new(0.9, 0.9)),
        (0, Point::new(0.5, 0.5)),
        (1, Point::new(0.5, 0.5)),
    ] {
        positions[unit as usize] = new;
        for alg in algs.iter_mut() {
            alg.handle_update(LocationUpdate {
                unit: UnitId(unit),
                new,
            })
            .expect("clean store");
            oracle.assert_result_matches(&alg.result(), &positions, 0.1, QueryMode::TopK(4));
        }
    }
}

#[test]
fn threshold_never_matched() {
    let places: Vec<Place> = (0..15)
        .map(|i| Place::point(PlaceId(i), Point::new(i as f64 / 15.0, 0.5), 0))
        .collect();
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(Grid::unit_square(4), places));
    let config = CtupConfig {
        mode: QueryMode::Threshold(-100),
        ..CtupConfig::paper_default()
    };
    let mut opt =
        OptCtup::new(config, store.clone(), &[Point::new(0.5, 0.5)]).expect("clean store");
    assert!(opt.result().is_empty());
    for (unit, new) in jagged_moves() {
        opt.handle_update(LocationUpdate {
            unit: UnitId(unit),
            new,
        })
        .expect("clean store");
        assert!(opt.result().is_empty());
    }
    // Nothing can ever cross the threshold, so no cell is ever accessed.
    assert_eq!(opt.metrics().cells_accessed, 0);
}

#[test]
fn threshold_above_every_safety_reports_every_place() {
    let places: Vec<Place> = (0..36u32)
        .map(|i| {
            Place::point(
                PlaceId(i),
                Point::new((i / 6) as f64 / 6.0 + 0.08, (i % 6) as f64 / 6.0 + 0.08),
                1 + (i / 6 + i % 6) % 4,
            )
        })
        .collect();
    let oracle = Oracle::new(places.clone());
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(Grid::unit_square(6), places));
    let mode = QueryMode::Threshold(100);
    let config = CtupConfig {
        mode,
        ..CtupConfig::paper_default()
    };
    let radius = config.protection_radius;
    let mut units = vec![Point::new(0.5, 0.5)];
    let mut opt = OptCtup::new(config, store, &units).expect("clean store");
    assert_eq!(opt.result().len(), 36);
    oracle.assert_result_matches(&opt.result(), &units, radius, mode);
    for (unit, new) in jagged_moves() {
        opt.handle_update(LocationUpdate {
            unit: UnitId(unit),
            new,
        })
        .expect("clean store");
        units[unit as usize] = new;
        // No safety can reach 100, so every place stays reported.
        assert_eq!(opt.result().len(), 36);
        oracle.assert_result_matches(&opt.result(), &units, radius, mode);
    }
}

#[test]
fn zero_required_protection_everywhere() {
    // All safeties are >= 0; the top-k is still well-defined.
    let places: Vec<Place> = (0..25)
        .map(|i| {
            Place::point(
                PlaceId(i),
                Point::new((i % 5) as f64 / 5.0, (i / 5) as f64 / 5.0),
                0,
            )
        })
        .collect();
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(Grid::unit_square(5), places));
    drive_and_check(
        CtupConfig::with_k(6),
        store,
        vec![Point::new(0.4, 0.4)],
        &jagged_moves(),
    );
}
