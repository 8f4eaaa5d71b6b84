//! The channel types of the threaded ingestion pipeline.
//!
//! In a deployment the wireless front-end receives location updates on one
//! thread while dispatchers consume alerts on another.
//! [`SupervisedPipeline`] runs the query processor on a worker behind a
//! bounded update channel (backpressure towards the receiver, refused with
//! a [`SendError`]) and publishes an [`EventBatch`] of [`MonitorEvent`]s
//! for every update that changed the result, read through an
//! [`EventReceiver`].
//!
//! [`SupervisedPipeline`]: crate::supervisor::SupervisedPipeline

use crate::server::MonitorEvent;
use std::sync::mpsc::{Receiver, RecvError, TryRecvError};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The result changes caused by one ingested update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventBatch {
    /// 0-based sequence number of the update that caused the changes.
    pub seq: u64,
    /// The changes, in [`crate::server::Server::ingest`] order.
    pub events: Vec<MonitorEvent>,
}

/// The consuming end of a pipeline's event channel.
///
/// `std::sync::mpsc::Receiver` is not `Sync`, and the front door reads
/// events through a shared reference from more than one thread (the
/// pump's housekeeping and any `last_good_topk` caller), so the receiver
/// sits behind a mutex taken once per batch. Each batch goes to exactly
/// one caller. [`recv`](Self::recv) keeps the
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

/// Errors returned by the pipeline send paths. Both are recoverable: a
/// `Full` caller may retry or drop the report (the next report refreshes
/// the position anyway); a `WorkerDied` caller should drain
/// [`SupervisedPipeline::events`] and call
/// [`SupervisedPipeline::shutdown`] for the final accounting.
///
/// [`SupervisedPipeline::events`]: crate::supervisor::SupervisedPipeline::events
/// [`SupervisedPipeline::shutdown`]: crate::supervisor::SupervisedPipeline::shutdown
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The bounded update queue is full (backpressure; `try_send` only).
    Full,
    /// The worker stopped (gave up, was killed, or a defect outside the
    /// contained region ended it) — a clean shutdown only happens through
    /// [`crate::supervisor::SupervisedPipeline::shutdown`], which consumes
    /// the pipeline.
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
