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
use ctup::core::config::{CtupConfig, QueryMode};
use ctup::core::naive::NaiveIncremental;
use ctup::core::oracle::Oracle;
use ctup::core::types::{LocationUpdate, Place, PlaceId, UnitId};
use ctup::core::{BasicCtup, OptCtup};
use ctup::spatial::{Grid, Point, Rect};
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
    // ~25% of places carry an extent (the future-work extension), clipped
    // to the unit square around their position.
    let mut id = 0;
    let places = g.vec(1..=59, |g| {
        let pos = point(g);
        let rp = g.gen_range(0..6) as u32;
        let place = if g.gen_bool(0.25) {
            let (hw, hh) = (g.gen_range_f64(0.0..0.04), g.gen_range_f64(0.0..0.04));
            let lo = Point::new((pos.x - hw).max(0.0), (pos.y - hh).max(0.0));
            let hi = Point::new((pos.x + hw).min(1.0), (pos.y + hh).min(1.0));
            Place::extended(PlaceId(id), pos, rp, Rect::new(lo, hi))
        } else {
            Place::point(PlaceId(id), pos, rp)
        };
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
        mode: QueryMode::TopK(s.k),
        protection_radius: s.radius,
        delta: s.delta,
        doo_enabled: doo,
        purge_dechash_on_access: true,
    };
    let mut units = s.units.clone();
    let mut basic = BasicCtup::new(config.clone(), store.clone(), &units).expect("clean store");
    let mut opt = OptCtup::new(config.clone(), store.clone(), &units).expect("clean store");
    let mut inc = NaiveIncremental::new(config.clone(), store, &units).expect("clean store");
    let mode = QueryMode::TopK(s.k);
    oracle.assert_result_matches(&basic.result(), &units, s.radius, mode);
    oracle.assert_result_matches(&opt.result(), &units, s.radius, mode);
    oracle.assert_result_matches(&inc.result(), &units, s.radius, mode);
    for &(unit, new) in &s.updates {
        let update = LocationUpdate {
            unit: UnitId(unit as u32),
            new,
        };
        units[unit] = new;
        basic.handle_update(update).expect("clean store");
        opt.handle_update(update).expect("clean store");
        inc.handle_update(update).expect("clean store");
        oracle.assert_result_matches(&basic.result(), &units, s.radius, mode);
        oracle.assert_result_matches(&opt.result(), &units, s.radius, mode);
        oracle.assert_result_matches(&inc.result(), &units, s.radius, mode);
    }
    basic.check_lb_invariant();
    opt.check_lb_invariant();
}

#[test]
fn schemes_match_oracle_with_doo() {
    check("schemes_match_oracle_with_doo", 64, scenario, |s| {
        run_scenario(s, true)
    });
}

#[test]
fn schemes_match_oracle_without_doo() {
    check("schemes_match_oracle_without_doo", 64, scenario, |s| {
        run_scenario(s, false)
    });
}

/// Threshold mode conformance on the same scenarios.
#[test]
fn threshold_mode_matches_oracle() {
    check(
        "threshold_mode_matches_oracle",
        64,
        |g| (scenario(g), g.int(-6..=3)),
        |(s, tau)| {
            let oracle = Oracle::new(s.places.clone());
            let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
                Grid::unit_square(s.granularity),
                s.places.clone(),
            ));
            let mode = QueryMode::Threshold(*tau);
            let config = CtupConfig {
                mode,
                protection_radius: s.radius,
                delta: s.delta,
                doo_enabled: true,
                purge_dechash_on_access: true,
            };
            let mut units = s.units.clone();
            let mut opt = OptCtup::new(config, store, &units).expect("clean store");
            oracle.assert_result_matches(&opt.result(), &units, s.radius, mode);
            for &(unit, new) in &s.updates {
                units[unit] = new;
                opt.handle_update(LocationUpdate {
                    unit: UnitId(unit as u32),
                    new,
                })
                .expect("clean store");
                oracle.assert_result_matches(&opt.result(), &units, s.radius, mode);
            }
            opt.check_lb_invariant();
        },
    );
}
