//! Threshold alerts: "page the dispatcher whenever ANY place falls below a
//! safety threshold" — the paper's future-work variant #3, served by
//! `OptCtup` in `QueryMode::Threshold` — plus dataset persistence through
//! the snapshot format.
//!
//! ```text
//! cargo run --release --example threshold_alerts
//! ```
//!
//! Examples are demos, not library code: aborting on a violated "clean
//! store / live worker" invariant is the right behaviour here, so the
//! workspace-wide expect/unwrap denies are relaxed.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup::core::algorithm::CtupAlgorithm;
use ctup::core::config::{CtupConfig, QueryMode};
use ctup::core::opt::OptCtup;
use ctup::core::types::{LocationUpdate, UnitId};
use ctup::mogen::{PlaceGenConfig, PlaceGenerator, Spread, Workload, WorkloadParams};
use ctup::spatial::Grid;
use ctup::storage::{snapshot, CellLocalStore, PlaceStore};
use std::sync::Arc;

fn main() {
    // A clustered city: most protection demand sits in three hot districts.
    let place_config = PlaceGenConfig {
        count: 5_000,
        spread: Spread::Clustered {
            clusters: 3,
            std_dev: 0.06,
            fraction_clustered: 0.7,
        },
        ..PlaceGenConfig::default()
    };
    let places = PlaceGenerator::new(place_config.clone()).generate(99);

    // Persist and reload the data set through the snapshot format, the way
    // a deployment would ship its place registry.
    let path = std::env::temp_dir().join("ctup_threshold_places.txt");
    snapshot::save_places(&path, &places).expect("save snapshot");
    let restored = snapshot::load_places(&path).expect("load snapshot");
    assert_eq!(restored, places);
    println!(
        "place registry snapshot round-tripped via {}",
        path.display()
    );

    let mut workload = Workload::generate(WorkloadParams {
        num_units: 100,
        places: place_config,
        seed: 99,
        ..WorkloadParams::default()
    });
    let store: Arc<dyn PlaceStore> =
        Arc::new(CellLocalStore::build(Grid::unit_square(10), restored));
    let units = workload.unit_positions();

    // Alarm whenever a place is short by 3 or more protectors.
    let tau = -5;
    let config = CtupConfig {
        mode: QueryMode::Threshold(tau),
        ..CtupConfig::paper_default()
    };
    let mut monitor = OptCtup::new(config, store, &units).expect("clean store");
    println!(
        "monitoring safety < {tau}: initially {} places in alarm\n",
        monitor.result().len()
    );

    let mut worst_alarms = 0usize;
    let mut total_alarm_updates = 0u64;
    for update in workload.next_updates(2_000) {
        let before = monitor.result().len();
        monitor
            .handle_update(LocationUpdate {
                unit: UnitId(update.object),
                new: update.to,
            })
            .expect("clean store");
        let after = monitor.result().len();
        if after != before {
            total_alarm_updates += 1;
        }
        if after > worst_alarms {
            worst_alarms = after;
            let worst = monitor.result();
            println!(
                "new peak: {} places below {tau} (worst: place {} at {})",
                after, worst[0].place.0, worst[0].safety
            );
        }
    }
    println!(
        "\nfinal: {} alarms, peak {}, {} updates changed the alarm set",
        monitor.result().len(),
        worst_alarms,
        total_alarm_updates
    );
    let m = monitor.metrics();
    println!(
        "costs: {:.3} cells accessed/update, {} places maintained",
        m.cells_accessed as f64 / m.updates_processed.max(1) as f64,
        m.maintained_now
    );
    let _ = std::fs::remove_file(&path);
}
