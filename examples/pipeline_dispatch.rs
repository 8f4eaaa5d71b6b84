//! Threaded dispatch center: location reports stream in on the main
//! thread while the monitor runs on its own supervised worker
//! ([`ctup::core::SupervisedPipeline`]), the way a wireless front-end and a
//! dispatcher console would share the server.
//!
//! ```text
//! cargo run --release --example pipeline_dispatch
//! ```
//!
//! Examples are demos, not library code: aborting on a violated "clean
//! store / live worker" invariant is the right behaviour here, so the
//! workspace-wide expect/unwrap denies are relaxed.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup::core::config::CtupConfig;
use ctup::core::ingest::stamp_stream;
use ctup::core::pipeline::SendError;
use ctup::core::server::MonitorEvent;
use ctup::core::supervisor::{ResilienceConfig, SupervisedPipeline};
use ctup::core::types::{LocationUpdate, UnitId};
use ctup::core::OptCtup;
use ctup::mogen::{PlaceGenConfig, Workload, WorkloadParams};
use ctup::spatial::Grid;
use ctup::storage::{CellLocalStore, PlaceStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut workload = Workload::generate(WorkloadParams {
        num_units: 80,
        places: PlaceGenConfig {
            count: 8_000,
            ..PlaceGenConfig::default()
        },
        seed: 404,
        ..WorkloadParams::default()
    });
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(10),
        workload.places_vec(),
    ));
    let units = workload.unit_positions();

    println!("spawning the monitor worker …");
    let monitor = OptCtup::new(CtupConfig::with_k(8), store, &units).expect("clean store");
    let pipeline = SupervisedPipeline::spawn(monitor, ResilienceConfig::default(), 1024);
    let streaming = AtomicBool::new(true);
    // The front-end stamps every report with a per-unit sequence number so
    // the worker's ingest gate can drop duplicates and stale reorders.
    let updates = workload
        .next_updates(5_000)
        .into_iter()
        .map(|u| LocationUpdate {
            unit: UnitId(u.object),
            new: u.to,
        });
    let reports = stamp_stream(updates);

    let (total_events, dropped) = std::thread::scope(|s| {
        // Consumer thread: the dispatcher console. It borrows the
        // pipeline's event receiver and sweeps it until the front-end
        // below has stopped streaming, then once more.
        let console = s.spawn(|| {
            let mut shown = 0usize;
            let mut total = 0usize;
            loop {
                let live = streaming.load(Ordering::Acquire);
                for batch in pipeline.events().try_iter() {
                    total += batch.events.len();
                    for event in &batch.events {
                        if shown < 15 {
                            match *event {
                                MonitorEvent::Entered { place, safety } => {
                                    println!(
                                        "  [upd {:>5}] ALERT place {:>5} (safety {safety})",
                                        batch.seq, place.0
                                    )
                                }
                                MonitorEvent::Left { place } => {
                                    println!("  [upd {:>5}] clear place {:>5}", batch.seq, place.0)
                                }
                                MonitorEvent::SafetyChanged { place, old, new } => {
                                    println!(
                                        "  [upd {:>5}] place {:>5} {old} -> {new}",
                                        batch.seq, place.0
                                    )
                                }
                            }
                            shown += 1;
                        }
                    }
                }
                if !live {
                    return total;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });

        // Producer: the wireless front-end streaming 5 000 reports.
        let mut dropped = 0usize;
        for report in reports {
            match pipeline.try_send(report) {
                Ok(()) => {}
                Err(SendError::Full) => {
                    // Backpressure: a real front-end would coalesce; we block.
                    pipeline.send(report).expect("monitor worker alive");
                    dropped += 1;
                }
                Err(SendError::WorkerDied) => break,
            }
        }
        streaming.store(false, Ordering::Release);
        (console.join().expect("console thread"), dropped)
    });
    // Shutdown takes the receiver with it: batches for updates still
    // queued when the console made its last sweep are counted below only.
    let report = pipeline.shutdown();

    println!("\nworker processed {} updates", report.updates_processed);
    println!("events consumed on the console thread: {total_events}");
    println!(
        "events emitted by the monitor:         {} (the rest were still queued at shutdown)",
        report.events_emitted
    );
    println!("updates that hit backpressure: {dropped}");
    println!(
        "monitor cost: {:.1} us/update, {} places maintained",
        (report.metrics.maintain_nanos + report.metrics.access_nanos) as f64
            / report.metrics.updates_processed.max(1) as f64
            / 1e3,
        report.metrics.maintained_now
    );
}
