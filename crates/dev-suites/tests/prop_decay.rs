//! Property-based conformance of the decayed-protection monitor (future
//! work #2): on arbitrary configurations and update streams, the grid
//! monitor must agree with the brute-force decay oracle for every kernel,
//! up to floating-point accumulation tolerance.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup_core::ext::decay::{DecayConfig, DecayCtup, DecayKernel, DecayMode, DecayOracle};
use ctup_core::types::{Place, PlaceId};
use ctup_spatial::{Grid, Point};
use ctup_storage::{CellLocalStore, PlaceStore};
use proptest::prelude::*;
use std::sync::Arc;

fn point() -> impl Strategy<Value = Point> {
    (0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y)| Point::new(x, y))
}

fn kernel() -> impl Strategy<Value = DecayKernel> {
    prop_oneof![
        (0.03f64..0.3).prop_map(|radius| DecayKernel::Step { radius }),
        (0.03f64..0.3).prop_map(|radius| DecayKernel::Cone { radius }),
        (0.02f64..0.1, 0.05f64..0.3)
            .prop_map(|(sigma, cutoff)| DecayKernel::Gaussian { sigma, cutoff }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn decay_monitor_matches_oracle(
        places_raw in prop::collection::vec((point(), 0u32..5), 1..40),
        units in prop::collection::vec(point(), 1..8),
        updates_raw in prop::collection::vec((any::<prop::sample::Index>(), point()), 1..30),
        kernel in kernel(),
        k in 1usize..6,
        delta in 0.0f64..2.0,
        g in 2u32..8,
    ) {
        let places: Vec<Place> = places_raw
            .into_iter()
            .enumerate()
            .map(|(i, (pos, rp))| Place::point(PlaceId(i as u32), pos, rp))
            .collect();
        let oracle = DecayOracle::new(places.clone(), kernel);
        let store: Arc<dyn PlaceStore> =
            Arc::new(CellLocalStore::build(Grid::unit_square(g), places));
        let mode = DecayMode::TopK(k);
        let mut positions = units.clone();
        let mut monitor =
            DecayCtup::new(DecayConfig { kernel, mode, delta }, store, &units)
                .expect("clean store");

        let check = |monitor: &DecayCtup, positions: &[Point]| {
            let got = monitor.result();
            let want = oracle.result(positions, mode);
            prop_assert_eq!(got.len(), want.len());
            for (g_entry, w_entry) in got.iter().zip(&want) {
                prop_assert!(
                    (g_entry.safety - w_entry.safety).abs() < 1e-6,
                    "got {:?} want {:?}", got, want
                );
            }
            Ok(())
        };
        check(&monitor, &positions)?;
        for (idx, new) in updates_raw {
            let unit = idx.index(positions.len());
            monitor.handle_update(unit as u32, new).expect("clean store");
            positions[unit] = new;
            check(&monitor, &positions)?;
        }
        monitor.check_lb_invariant(1e-6);
    }
}
