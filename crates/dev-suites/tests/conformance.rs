//! Property-based conformance: on arbitrary place sets, unit fleets and
//! update streams, every scheme must report exactly the oracle's safety
//! multiset after every update, and the grid schemes' internal invariants
//! must hold.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup::core::algorithm::CtupAlgorithm;
use ctup::core::config::{CtupConfig, QueryMode};
use ctup::core::naive::NaiveIncremental;
use ctup::core::oracle::Oracle;
use ctup::core::types::{LocationUpdate, Place, PlaceId, UnitId};
use ctup::core::{BasicCtup, OptCtup};
use ctup::spatial::{Grid, Point};
use ctup::storage::{CellLocalStore, PlaceStore};
use proptest::prelude::*;
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

fn point_strategy() -> impl Strategy<Value = Point> {
    (0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y)| Point::new(x, y))
}

fn scenario() -> impl Strategy<Value = Scenario> {
    // ~25% of places carry an extent (the future-work extension), clipped
    // to the unit square around their position.
    let place = (
        point_strategy(),
        0u32..6,
        prop::option::weighted(0.25, (0.0f64..0.04, 0.0f64..0.04)),
    );
    let places = prop::collection::vec(place, 1..60).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (pos, rp, extent))| match extent {
                None => Place::point(PlaceId(i as u32), pos, rp),
                Some((hw, hh)) => {
                    let lo =
                        ctup::spatial::Point::new((pos.x - hw).max(0.0), (pos.y - hh).max(0.0));
                    let hi =
                        ctup::spatial::Point::new((pos.x + hw).min(1.0), (pos.y + hh).min(1.0));
                    Place::extended(PlaceId(i as u32), pos, rp, ctup::spatial::Rect::new(lo, hi))
                }
            })
            .collect::<Vec<_>>()
    });
    let units = prop::collection::vec(point_strategy(), 1..12);
    (places, units, 1usize..8, 0i64..8, 2u32..9, 0.02f64..0.35).prop_flat_map(
        |(places, units, k, delta, granularity, radius)| {
            let num_units = units.len();
            let updates = prop::collection::vec((0..num_units, point_strategy()), 1..40);
            (
                Just(places),
                Just(units),
                updates,
                Just(k),
                Just(delta),
                Just(granularity),
                Just(radius),
            )
                .prop_map(|(places, units, updates, k, delta, granularity, radius)| {
                    Scenario {
                        places,
                        units,
                        updates,
                        k,
                        delta,
                        granularity,
                        radius,
                    }
                })
        },
    )
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn schemes_match_oracle_with_doo(s in scenario()) {
        run_scenario(&s, true);
    }

    #[test]
    fn schemes_match_oracle_without_doo(s in scenario()) {
        run_scenario(&s, false);
    }

    /// Threshold mode conformance on the same scenarios.
    #[test]
    fn threshold_mode_matches_oracle(s in scenario(), tau in -6i64..4) {
        let oracle = Oracle::new(s.places.clone());
        let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
            Grid::unit_square(s.granularity),
            s.places.clone(),
        ));
        let config = CtupConfig {
            mode: QueryMode::Threshold(tau),
            protection_radius: s.radius,
            delta: s.delta,
            doo_enabled: true,
            purge_dechash_on_access: true,
        };
        let mut units = s.units.clone();
        let mut opt = OptCtup::new(config, store, &units).expect("clean store");
        let mode = QueryMode::Threshold(tau);
        oracle.assert_result_matches(&opt.result(), &units, s.radius, mode);
        for &(unit, new) in &s.updates {
            units[unit] = new;
            opt.handle_update(LocationUpdate { unit: UnitId(unit as u32), new })
                .expect("clean store");
            oracle.assert_result_matches(&opt.result(), &units, s.radius, mode);
        }
        opt.check_lb_invariant();
    }
}
