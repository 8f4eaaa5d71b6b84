//! A tour of the paper's future-work extension that changes the protection
//! predicate: places with extent. (Threshold monitoring, the other variant
//! served, has its own example, `threshold_alerts`.)
//!
//! ```text
//! cargo run --release --example extensions_tour
//! ```
//!
//! Examples are demos, not library code: aborting on a violated "clean
//! store / live worker" invariant is the right behaviour here, so the
//! workspace-wide expect/unwrap denies are relaxed.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup::core::algorithm::CtupAlgorithm;
use ctup::core::config::CtupConfig;
use ctup::core::opt::OptCtup;
use ctup::core::types::{LocationUpdate, Place, PlaceId, UnitId};
use ctup::spatial::{Grid, Point, Rect};
use ctup::storage::{CellLocalStore, PlaceStore};
use std::sync::Arc;

fn main() {
    println!("— places with extent —");
    // A shopping mall occupies a whole block; a kiosk is a point. A patrol
    // protects the mall only when its entire footprint is in range.
    let mall = Place::extended(
        PlaceId(0),
        Point::new(0.50, 0.50),
        2,
        Rect::from_coords(0.44, 0.46, 0.56, 0.54),
    );
    let kiosk = Place::point(PlaceId(1), Point::new(0.52, 0.50), 1);
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(10),
        vec![mall, kiosk],
    ));
    let mut monitor = OptCtup::new(
        CtupConfig {
            protection_radius: 0.08,
            ..CtupConfig::with_k(2)
        },
        store,
        &[Point::new(0.52, 0.50)],
    )
    .expect("clean store");
    for entry in monitor.result() {
        println!(
            "   place {} safety {:>2}   (the mall needs the whole footprint covered)",
            entry.place.0, entry.safety
        );
    }
    // Moving closer to the mall's center covers the full footprint.
    monitor
        .handle_update(LocationUpdate {
            unit: UnitId(0),
            new: Point::new(0.50, 0.50),
        })
        .expect("clean store");
    println!("   after centering the patrol on the mall:");
    for entry in monitor.result() {
        println!("   place {} safety {:>2}", entry.place.0, entry.safety);
    }
}
