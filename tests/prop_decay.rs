//! Property-based conformance of the decayed-protection monitor (future
//! work #2): on random configurations and update streams, the grid
//! monitor must agree with the brute-force decay oracle for every kernel,
//! up to floating-point accumulation tolerance.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

#[path = "support/prop.rs"]
mod prop;

use ctup::core::ext::decay::{DecayConfig, DecayCtup, DecayKernel, DecayMode, DecayOracle};
use ctup::core::types::{Place, PlaceId};
use ctup::spatial::{Grid, Point};
use ctup::storage::{CellLocalStore, PlaceStore};
use prop::{check, Gen};
use std::sync::Arc;

fn point(g: &mut Gen) -> Point {
    Point::new(g.gen_f64(), g.gen_f64())
}

fn kernel(g: &mut Gen) -> DecayKernel {
    match g.gen_range(0..3) {
        0 => DecayKernel::Step {
            radius: g.gen_range_f64(0.03..0.3),
        },
        1 => DecayKernel::Cone {
            radius: g.gen_range_f64(0.03..0.3),
        },
        _ => DecayKernel::Gaussian {
            sigma: g.gen_range_f64(0.02..0.1),
            cutoff: g.gen_range_f64(0.05..0.3),
        },
    }
}

#[derive(Debug)]
struct Input {
    places: Vec<Place>,
    units: Vec<Point>,
    updates: Vec<(usize, Point)>,
    kernel: DecayKernel,
    k: usize,
    delta: f64,
    g: u32,
}

fn input(g: &mut Gen) -> Input {
    let mut id = 0;
    let places = g.vec(1..=39, |g| {
        let place = Place::point(PlaceId(id), point(g), g.gen_range(0..5) as u32);
        id += 1;
        place
    });
    let units = g.vec(1..=7, point);
    let updates = g.vec(1..=29, |g| (g.gen_range(0..units.len()), point(g)));
    Input {
        places,
        units,
        updates,
        kernel: kernel(g),
        k: g.gen_range(1..6),
        delta: g.gen_range_f64(0.0..2.0),
        g: g.gen_range(2..8) as u32,
    }
}

#[test]
fn decay_monitor_matches_oracle() {
    check("decay_monitor_matches_oracle", 48, input, |i| {
        let oracle = DecayOracle::new(i.places.clone(), i.kernel);
        let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
            Grid::unit_square(i.g),
            i.places.clone(),
        ));
        let mode = DecayMode::TopK(i.k);
        let config = DecayConfig {
            kernel: i.kernel,
            mode,
            delta: i.delta,
        };
        let mut positions = i.units.clone();
        let mut monitor = DecayCtup::new(config, store, &i.units).expect("clean store");
        let check = |monitor: &DecayCtup, positions: &[Point]| {
            let got = monitor.result();
            let want = oracle.result(positions, mode);
            assert_eq!(got.len(), want.len());
            for (g_entry, w_entry) in got.iter().zip(&want) {
                assert!(
                    (g_entry.safety - w_entry.safety).abs() < 1e-6,
                    "got {got:?} want {want:?}"
                );
            }
        };
        check(&monitor, &positions);
        for &(unit, new) in &i.updates {
            monitor
                .handle_update(unit as u32, new)
                .expect("clean store");
            positions[unit] = new;
            check(&monitor, &positions);
        }
        monitor.check_lb_invariant(1e-6);
    });
}
