//! A threaded ingestion pipeline around the monitoring server.
//!
//! In a deployment the wireless front-end receives location updates on one
//! thread while dispatchers consume alerts on another. [`Pipeline`] spawns
//! a worker that owns the query processor, ingests updates from a bounded
//! channel (providing backpressure towards the receiver), and publishes a
//! batch of [`MonitorEvent`]s for every update that changed the result.

use crate::algorithm::CtupAlgorithm;
use crate::metrics::Metrics;
use crate::server::{MonitorEvent, Server};
use crate::types::LocationUpdate;
use ctup_obs::LatencySnapshot;
use ctup_storage::StorageError;
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender, TryRecvError, TrySendError};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The result changes caused by one ingested update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventBatch {
    /// 0-based sequence number of the update that caused the changes.
    pub seq: u64,
    /// The changes, in [`Server::ingest`] order.
    pub events: Vec<MonitorEvent>,
}

/// The consuming end of a pipeline's event channel.
///
/// `std::sync::mpsc::Receiver` is not `Sync`, and the front door reads
/// events through a shared reference from two threads (the pump and the
/// watchdog), so the receiver sits behind a mutex taken once per batch.
/// Each batch goes to exactly one caller. [`recv`](Self::recv) keeps the
/// mutex while it waits, so a concurrent call waits with it.
#[derive(Debug)]
pub struct EventReceiver(Mutex<Receiver<EventBatch>>);

impl EventReceiver {
    pub(crate) fn new(rx: Receiver<EventBatch>) -> Self {
        EventReceiver(Mutex::new(rx))
    }

    fn lock(&self) -> MutexGuard<'_, Receiver<EventBatch>> {
        // A receiver has no state a panicking holder could leave torn.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next batch if one is queued; never blocks on the channel.
    pub fn try_recv(&self) -> Result<EventBatch, TryRecvError> {
        self.lock().try_recv()
    }

    /// Blocks for the next batch; `Err` once the worker is gone and the
    /// channel is empty.
    pub fn recv(&self) -> Result<EventBatch, RecvError> {
        self.lock().recv()
    }

    /// Drains what is queued right now and ends on the first empty poll.
    pub fn try_iter(&self) -> impl Iterator<Item = EventBatch> + '_ {
        std::iter::from_fn(|| self.try_recv().ok())
    }
}

/// Final accounting returned by [`Pipeline::shutdown`].
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Updates processed by the worker.
    pub updates_processed: u64,
    /// Total events published.
    pub events_emitted: u64,
    /// The algorithm's cumulative metrics at shutdown.
    pub metrics: Metrics,
    /// Whether the worker died of a panic instead of a clean shutdown (the
    /// counters above are lost — zero — when it did; a caller that needs
    /// to survive worker crashes should run the supervised pipeline,
    /// [`crate::supervisor::SupervisedPipeline`], instead).
    pub worker_panicked: bool,
    /// The storage error that stopped the worker, if one did. The plain
    /// pipeline has no checkpoint to fall back to, so the first exhausted
    /// retry or detected corruption ends the run (counters up to that
    /// point are preserved); the supervised pipeline restarts instead.
    pub storage_error: Option<StorageError>,
    /// Per-update latency distributions of the run. The plain pipeline has
    /// no store handle, so `disk_read_nanos` stays empty here; the
    /// supervised pipeline fills it.
    pub latency: LatencySnapshot,
}

/// A monitoring server running on its own worker thread.
pub struct Pipeline {
    updates_tx: Option<SyncSender<LocationUpdate>>,
    events_rx: EventReceiver,
    worker: Option<JoinHandle<PipelineReport>>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("worker_alive", &self.worker.is_some())
            .finish_non_exhaustive()
    }
}

/// Errors returned by the pipeline send paths. Both are recoverable: a
/// `Full` caller may retry or drop the report (the next report refreshes
/// the position anyway); a `WorkerDied` caller should drain
/// [`Pipeline::events`] and call [`Pipeline::shutdown`] for the final
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The bounded update queue is full (backpressure; `try_send` only).
    Full,
    /// The worker terminated — it panicked, because a clean shutdown only
    /// happens through [`Pipeline::shutdown`] which consumes the pipeline.
    WorkerDied,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Full => f.write_str("update queue is full"),
            SendError::WorkerDied => f.write_str("monitor worker terminated"),
        }
    }
}

impl std::error::Error for SendError {}

impl Pipeline {
    /// Spawns the worker around an initialized algorithm. `capacity` bounds
    /// both the inbound update queue and the outbound event queue.
    pub fn spawn<A>(algorithm: A, capacity: usize) -> Self
    where
        A: CtupAlgorithm + Send + 'static,
    {
        assert!(capacity > 0, "capacity must be positive");
        let (updates_tx, updates_rx) = sync_channel::<LocationUpdate>(capacity);
        let (events_tx, events_rx) = sync_channel::<EventBatch>(capacity);
        #[allow(clippy::expect_used)]
        let worker = std::thread::Builder::new()
            .name("ctup-monitor".into())
            .spawn(move || {
                let mut server = Server::new(algorithm);
                let mut seq = 0u64;
                let mut storage_error = None;
                let mut latency = LatencySnapshot::default();
                for update in updates_rx.iter() {
                    match server.ingest(update) {
                        Ok((events, stats)) => {
                            latency.update_maintain_nanos.record(stats.maintain_nanos);
                            latency.update_access_nanos.record(stats.access_nanos);
                            latency
                                .update_total_nanos
                                .record(stats.maintain_nanos.saturating_add(stats.access_nanos));
                            if !events.is_empty() {
                                // If every consumer hung up, keep monitoring
                                // anyway: the final report still carries the
                                // totals.
                                let _ = events_tx.send(EventBatch { seq, events });
                            }
                            seq += 1;
                        }
                        Err(e) => {
                            storage_error = Some(e);
                            break;
                        }
                    }
                }
                PipelineReport {
                    updates_processed: seq,
                    events_emitted: server.events_emitted(),
                    metrics: server.algorithm().metrics().clone(),
                    worker_panicked: false,
                    storage_error,
                    latency,
                }
            })
            // ctup-lint: allow(L001, thread spawn fails only on OS resource exhaustion at construction — there is no monitor to degrade to yet)
            .expect("spawn ctup-monitor thread");
        Pipeline {
            updates_tx: Some(updates_tx),
            events_rx: EventReceiver::new(events_rx),
            worker: Some(worker),
        }
    }

    /// Sends one update, blocking while the queue is full. Returns
    /// [`SendError::WorkerDied`] if the worker has panicked — the caller
    /// can keep draining events and recover the final report via
    /// [`Pipeline::shutdown`].
    pub fn send(&self, update: LocationUpdate) -> Result<(), SendError> {
        let Some(tx) = self.updates_tx.as_ref() else {
            return Err(SendError::WorkerDied); // only after shutdown() took the sender
        };
        tx.send(update).map_err(|_| SendError::WorkerDied)
    }

    /// Sends one update without blocking; returns [`SendError::Full`] when
    /// the queue is saturated (caller may drop or retry — position updates
    /// are refreshed by the next report anyway) and
    /// [`SendError::WorkerDied`] when the worker has panicked.
    pub fn try_send(&self, update: LocationUpdate) -> Result<(), SendError> {
        let Some(tx) = self.updates_tx.as_ref() else {
            return Err(SendError::WorkerDied); // only after shutdown() took the sender
        };
        match tx.try_send(update) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(SendError::Full),
            Err(TrySendError::Disconnected(_)) => Err(SendError::WorkerDied),
        }
    }

    /// The event stream. Batches arrive in update order.
    pub fn events(&self) -> &EventReceiver {
        &self.events_rx
    }

    /// Closes the update channel, drains the worker and returns its report.
    /// Batches not yet read from [`Pipeline::events`] go with the pipeline.
    /// If the worker died of a panic, the report carries
    /// `worker_panicked: true` (with zeroed counters) instead of
    /// propagating the panic to the caller.
    pub fn shutdown(mut self) -> PipelineReport {
        self.updates_tx.take(); // close the channel -> worker loop ends
                                // `worker` is `Some` until this method consumes `self`, so the else
                                // arm is unreachable; degrade like a dead worker instead of
                                // panicking at the one place callers collect their final report.
        let report = self.worker.take().map(|w| w.join());
        match report {
            Some(Ok(report)) => report,
            _ => PipelineReport {
                updates_processed: 0,
                events_emitted: 0,
                metrics: Metrics::default(),
                worker_panicked: true,
                storage_error: None,
                latency: LatencySnapshot::default(),
            },
        }
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        self.updates_tx.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CtupConfig;
    use crate::opt::OptCtup;
    use crate::types::{Place, PlaceId, UnitId};
    use ctup_spatial::{Grid, Point};
    use ctup_storage::{CellLocalStore, PlaceStore};
    use std::sync::Arc;

    fn places() -> Vec<Place> {
        (0..20)
            .map(|i| {
                Place::point(
                    PlaceId(i),
                    Point::new((i % 5) as f64 / 5.0 + 0.1, (i / 5) as f64 / 4.0 + 0.1),
                    1 + i % 3,
                )
            })
            .collect()
    }

    fn monitor(units: &[Point]) -> OptCtup {
        let store: Arc<dyn PlaceStore> =
            Arc::new(CellLocalStore::build(Grid::unit_square(5), places()));
        OptCtup::new(CtupConfig::with_k(4), store, units).expect("init")
    }

    fn updates(n: usize) -> Vec<LocationUpdate> {
        let mut state = 0xFEEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| LocationUpdate {
                unit: UnitId((next() * 3.0) as u32 % 3),
                new: Point::new(next(), next()),
            })
            .collect()
    }

    #[test]
    fn pipeline_matches_direct_server_run() {
        let units = [
            Point::new(0.1, 0.1),
            Point::new(0.5, 0.5),
            Point::new(0.9, 0.9),
        ];
        let stream = updates(200);

        // Direct run.
        let mut direct = Server::new(monitor(&units));
        let mut direct_batches = Vec::new();
        for (seq, &u) in stream.iter().enumerate() {
            let (events, _) = direct.ingest(u).expect("ingest");
            if !events.is_empty() {
                direct_batches.push(EventBatch {
                    seq: seq as u64,
                    events,
                });
            }
        }

        // Pipelined run: a scoped thread borrows the event receiver and
        // takes the batches as they are published (shutdown consumes the
        // pipeline, receiver included, so they are read first).
        let pipeline = Pipeline::spawn(monitor(&units), 256);
        let piped_batches: Vec<EventBatch> = std::thread::scope(|s| {
            let drain = s.spawn(|| {
                (0..direct_batches.len())
                    .map(|_| pipeline.events().recv().expect("worker alive"))
                    .collect()
            });
            for &u in &stream {
                pipeline.send(u).expect("worker alive");
            }
            drain.join().expect("drain thread")
        });
        let report = pipeline.shutdown();
        assert_eq!(report.updates_processed, 200);
        assert_eq!(piped_batches, direct_batches);
        assert_eq!(report.events_emitted, direct.events_emitted());
        // Every processed update fed the latency histograms.
        assert_eq!(report.latency.update_total_nanos.count(), 200);
        assert_eq!(report.latency.update_maintain_nanos.count(), 200);
        assert!(report.latency.disk_read_nanos.is_empty());
    }

    #[test]
    fn try_send_reports_backpressure() {
        let units = [Point::new(0.1, 0.1)];
        let pipeline = Pipeline::spawn(monitor(&units), 1);
        // Saturate: with capacity 1, eventually try_send must fail at least
        // once while the worker is busy.
        let mut saw_full = false;
        for u in updates(5_000) {
            match pipeline.try_send(u) {
                Ok(()) => {}
                Err(SendError::Full) => {
                    saw_full = true;
                    break;
                }
                Err(SendError::WorkerDied) => panic!("worker died unexpectedly"),
            }
        }
        let report = pipeline.shutdown();
        assert!(report.updates_processed > 0);
        // Either the worker kept up with everything (possible on a fast
        // machine) or backpressure was observed; both are valid, but the
        // pipeline must never lose accepted updates.
        if !saw_full {
            assert_eq!(report.updates_processed, 5_000);
        }
    }

    #[test]
    fn drop_without_shutdown_joins_cleanly() {
        let units = [Point::new(0.1, 0.1)];
        let pipeline = Pipeline::spawn(monitor(&units), 8);
        pipeline
            .send(LocationUpdate {
                unit: UnitId(0),
                new: Point::new(0.2, 0.2),
            })
            .expect("worker alive");
        drop(pipeline); // must not hang or panic
    }

    /// A panicking algorithm must surface as typed errors on the send path
    /// and a `worker_panicked` report — never as a panic in the caller.
    #[test]
    fn dead_worker_yields_typed_errors() {
        struct Bomb(OptCtup);
        impl CtupAlgorithm for Bomb {
            fn name(&self) -> &'static str {
                "bomb"
            }
            fn config(&self) -> &CtupConfig {
                self.0.config()
            }
            fn handle_update(
                &mut self,
                _update: LocationUpdate,
            ) -> Result<crate::UpdateStats, StorageError> {
                panic!("boom");
            }
            fn result(&self) -> Vec<crate::TopKEntry> {
                self.0.result()
            }
            fn sk(&self) -> Option<crate::Safety> {
                self.0.sk()
            }
            fn metrics(&self) -> &Metrics {
                self.0.metrics()
            }
            fn init_stats(&self) -> &crate::InitStats {
                self.0.init_stats()
            }
            fn unit_position(&self, unit: UnitId) -> Point {
                self.0.unit_position(unit)
            }
            fn num_units(&self) -> usize {
                self.0.num_units()
            }
        }

        let units = [Point::new(0.1, 0.1)];
        let pipeline = Pipeline::spawn(Bomb(monitor(&units)), 8);
        let update = LocationUpdate {
            unit: UnitId(0),
            new: Point::new(0.2, 0.2),
        };
        // The first send reaches the worker, which dies processing it.
        // Eventually the channel disconnects and sends report WorkerDied.
        let mut died = false;
        for _ in 0..1_000 {
            match pipeline.send(update) {
                Ok(()) => std::thread::yield_now(),
                Err(SendError::WorkerDied) => {
                    died = true;
                    break;
                }
                Err(SendError::Full) => unreachable!("blocking send never reports Full"),
            }
        }
        assert!(died, "send never observed the dead worker");
        let report = pipeline.shutdown();
        assert!(report.worker_panicked);
    }
}
