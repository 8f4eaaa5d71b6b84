//! Property-based conformance: on random place sets, unit fleets and
//! update streams, every scheme must report exactly the oracle's safety
//! multiset after every update, and the grid schemes' internal invariants
//! must hold.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

#[path = "support/prop.rs"]
mod prop;

use ctup::core::algorithm::CtupAlgorithm;
use ctup::core::config::CtupConfig;
use ctup::core::naive::NaiveIncremental;
use ctup::core::oracle::Oracle;
use ctup::core::types::{LocationUpdate, Place, PlaceId, UnitId};
use ctup::core::{BasicCtup, OptCtup};
use ctup::spatial::{Grid, Point};
use ctup::storage::{CellLocalStore, PlaceStore};
use prop::{check, Gen};
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Scenario {
    places: Vec<Place>,
    units: Vec<Point>,
    updates: Vec<(usize, Point)>,
    k: usize,
    delta: i64,
    granularity: u32,
    radius: f64,
}

fn point(g: &mut Gen) -> Point {
    Point::new(g.gen_f64(), g.gen_f64())
}

fn scenario(g: &mut Gen) -> Scenario {
    let mut id = 0;
    let places = g.vec(1..=59, |g| {
        let place = Place::point(PlaceId(id), point(g), g.gen_range(0..6) as u32);
        id += 1;
        place
    });
    let units = g.vec(1..=11, point);
    let updates = g.vec(1..=39, |g| (g.gen_range(0..units.len()), point(g)));
    Scenario {
        places,
        units,
        updates,
        k: g.gen_range(1..8),
        delta: g.int(0..=7),
        granularity: g.gen_range(2..9) as u32,
        radius: g.gen_range_f64(0.02..0.35),
    }
}

fn run_scenario(s: &Scenario, doo: bool) {
    let oracle = Oracle::new(s.places.clone());
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(s.granularity),
        s.places.clone(),
    ));
    let config = CtupConfig {
        protection_radius: s.radius,
        delta: s.delta,
        doo_enabled: doo,
        ..CtupConfig::with_k(s.k)
    };
    let mut units = s.units.clone();
    let mut basic = BasicCtup::new(config.clone(), store.clone(), &units).expect("clean store");
    let mut opt = OptCtup::new(config.clone(), store.clone(), &units).expect("clean store");
    let mut inc = NaiveIncremental::new(config.clone(), store, &units).expect("clean store");
    let k = s.k;
    oracle.assert_result_matches(&basic.result(), &units, s.radius, k);
    oracle.assert_result_matches(&opt.result(), &units, s.radius, k);
    oracle.assert_result_matches(&inc.result(), &units, s.radius, k);
    for &(unit, new) in &s.updates {
        let update = LocationUpdate {
            unit: UnitId(unit as u32),
            new,
        };
        units[unit] = new;
        basic.handle_update(update).expect("clean store");
        opt.handle_update(update).expect("clean store");
        inc.handle_update(update).expect("clean store");
        oracle.assert_result_matches(&basic.result(), &units, s.radius, k);
        oracle.assert_result_matches(&opt.result(), &units, s.radius, k);
        oracle.assert_result_matches(&inc.result(), &units, s.radius, k);
    }
    basic.check_lb_invariant();
    opt.check_lb_invariant();
}

#[test]
fn schemes_match_oracle_with_doo() {
    check("schemes_match_oracle_with_doo", 96, scenario, |s| {
        run_scenario(s, true)
    });
}

#[test]
fn schemes_match_oracle_without_doo() {
    check("schemes_match_oracle_without_doo", 96, scenario, |s| {
        run_scenario(s, false)
    });
}
