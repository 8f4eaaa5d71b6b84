//! Supervised ingestion: the degraded-feed hardening layer.
//!
//! [`SupervisedPipeline`] runs the monitor behind a bounded report channel
//! on two threads, and runs the full resilience stack over *commit groups*
//! — a report plus every report queued behind it, cut at the next durable
//! slot. The *commit stage* (`ctup-supervisor`) takes steps 1, 2 and 4, the
//! *apply stage* (`ctup-apply`) steps 3 and 5, and while the apply stage
//! runs one group the commit stage syncs the next:
//!
//! 1. every inbound [`StampedUpdate`] of the group passes the
//!    [`IngestGate`] (validation and dedup — see [`crate::ingest`]);
//! 2. when [`ResilienceConfig::state_dir`] is set, the group's accepted
//!    wire reports are journaled with one write and one `fdatasync`; then
//!    the [durable mark](SupervisedPipeline::durable_mark) advances over
//!    the whole group and is announced once, and the group's accepted
//!    reports are handed to the apply stage over a queue that holds one
//!    group. No report reaches the engine before its group's sync, and
//!    every ack precedes its apply. Without a `state_dir` nothing is
//!    persisted and the mark advances on receipt;
//! 3. each accepted report's update — its *effective* update, one per
//!    report — is applied, in order, inside
//!    [`std::panic::catch_unwind`], so a panicking query processor does not
//!    kill the apply stage; a [`StorageError`] surfaced by the processor (a
//!    read that exhausted its retries, a page whose checksum failed) is
//!    contained the same way. After each successful apply the stage
//!    records the unit's new position, so it always holds the positions
//!    the engine was last correct at;
//! 4. with a `state_dir`, at the end of a group that brought the count
//!    since the last slot to `checkpoint_every` effective updates, the
//!    commit stage writes a [`Checkpoint`] inline, before it hands the
//!    group over: the slot of its [`DurableImage`] — the unit positions
//!    folded from the gate's accepted reports, plus the
//!    [`GateState`] — in place over the older A/B slot of
//!    [`crate::durable`]. A slot is a
//!    function of the journal, never of the engine, and is never taken
//!    inside a group, so the gate state and the positions it captures
//!    always cover the same reports. A journal or slot write that fails
//!    stops both stages. Without a `state_dir` no checkpoint is taken;
//! 5. after a caught panic or contained storage error the apply stage
//!    restores the monitor by one fresh initialization from the positions it holds
//!    — restore *is* init — and retries the update that crashed. Nothing
//!    is replayed through an engine, so no event needs suppressing. The
//!    new engine may break a tie at `SK` differently from the one that
//!    crashed, so its server takes over the crashed server's published map
//!    ([`Server::take_over_published`]) and the retry diffs against what
//!    subscribers hold. Every recovery attempt spends one of
//!    [`MAX_RESTARTS`] inside a sliding [`RESTART_WINDOW`], and a restore
//!    that fails is retried like a crash in apply; once the window holds
//!    the whole budget the pipeline gives up and reports so. This is the
//!    only in-process restart: the front door does not revive an engine
//!    that gave up.
//!
//! The state directory has one writer at a time. The commit stage writes
//! it only under the pipeline's directory lock, and not at all once the
//! apply stage has stopped; the apply stage, when it stops, writes the
//! crash dump ([`FLIGHT_RECORDER_FILE`]) under the same lock and only then
//! marks the pipeline stopped. So once [`SupervisedPipeline::worker_dead`] is true,
//! no thread writes the directory, and recovery may open it.
//!
//! After a *process* death (not just a worker panic),
//! [`SupervisedPipeline::recover_from_dir`] loads the newest valid durable
//! slot into a [`DurableImage`], folds the journaled tail into it — the
//! gate's dedup state makes the fold idempotent — and initializes the
//! monitor once from the result. The tail may end in journaled groups that were never (or only partly)
//! applied: up to the one being applied, the one queued and the one the
//! commit stage waited to hand over.
//!
//! Deterministic fault injection for tests and `ctup serve --kill-at` is
//! built in: [`ResilienceConfig::panic_at`] crashes the processor at
//! chosen effective sequence numbers, exactly once each, and
//! [`ResilienceConfig::kill_at`] halts the apply stage abruptly mid-stream
//! the way `kill -9` would, and the commit stage with it. A test that
//! wants a death mid-checkpoint-write tears the newest slot itself once
//! the pipeline is dead ([`DurableState::tear_newest_slot`]).
//!
//! All decisions are counted in [`ResilienceStats`], folded into the final
//! [`Metrics`] of the [`SupervisedReport`].
//!
//! [`StorageError`]: ctup_storage::StorageError
//! [`GateState`]: crate::ingest::GateState

use crate::checkpoint::{Checkpoint, Checkpointable, DurableImage};
use crate::durable::DurableState;
use crate::ingest::{IngestConfig, IngestGate, StampedUpdate, TracedReport};
use crate::metrics::{Metrics, ResilienceStats};
use crate::pipeline::{EventBatch, EventReceiver, SendError};
use crate::server::Server;
use crate::types::{LocationUpdate, TopKEntry};
use ctup_obs::json::ObjectWriter;
use ctup_obs::{now_nanos, LatencySnapshot, ObsHub, SpanSink, Stage};
use ctup_spatial::convert;
use ctup_storage::PlaceStore;
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning of the resilience layer.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// With a [`state_dir`](Self::state_dir), land a durable slot every
    /// this many effective updates; `0` keeps only the spawn-time slot.
    /// Inert without a `state_dir`: a self-heal needs no checkpoint.
    pub checkpoint_every: u64,
    /// Deterministic fault injection: the processor panics when it is
    /// handed the effective update with each of these sequence numbers,
    /// once per entry.
    pub panic_at: Vec<u64>,
    /// Directory for the durable A/B checkpoint slots and the wire-report
    /// journal (see [`crate::durable`]); `None` persists nothing, so the
    /// monitor survives worker panics but not a process death.
    pub state_dir: Option<PathBuf>,
    /// Simulated process death: the apply stage halts abruptly — no final
    /// checkpoint, no cleanup — right before applying the effective update
    /// with this sequence number, and the commit stage journals nothing
    /// after that. Recovery is then exercised with
    /// [`SupervisedPipeline::recover_from_dir`].
    pub kill_at: Option<u64>,
    /// Causal span sink the worker records per-report pipeline spans into
    /// (engine-apply, shard-phase, merge, snapshot-publish, wal-append,
    /// checkpoint — see [`ctup_obs::span`]). Only reports handed over with
    /// a non-zero trace id via [`SupervisedPipeline::send_traced`] record
    /// spans; `None` disables recording entirely.
    pub spans: Option<Arc<SpanSink>>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            checkpoint_every: 256,
            panic_at: Vec::new(),
            state_dir: None,
            kill_at: None,
            spans: None,
        }
    }
}

/// File name of the crash dump the apply stage writes into
/// [`ResilienceConfig::state_dir`], next to the durable checkpoint slots,
/// when it is killed or gives up. It is one line, the terminal record:
/// `outcome`, the effective `seq` the stage stopped at, and the `unit`
/// when known. The spans before the death are the
/// [span sink](ResilienceConfig::spans)'s to keep.
pub const FLIGHT_RECORDER_FILE: &str = "flight-recorder.jsonl";

/// Final accounting returned by [`SupervisedPipeline::shutdown`].
#[derive(Debug, Clone)]
pub struct SupervisedReport {
    /// Raw reports received from the feed (before the gate).
    pub reports_received: u64,
    /// Effective updates applied to the monitor (excluding a journal tail
    /// that recovery folded in).
    pub updates_processed: u64,
    /// Total events published. A restart re-publishes nothing, so each
    /// change to the top-k is counted once.
    pub events_emitted: u64,
    /// Whether the worker exhausted [`MAX_RESTARTS`] (or could not persist
    /// a checkpoint) and stopped monitoring early. The counters above still describe
    /// everything processed up to that point.
    pub gave_up: bool,
    /// Whether the worker was halted by [`ResilienceConfig::kill_at`]
    /// (simulated process death). The monitor state died with it; recovery
    /// goes through [`SupervisedPipeline::recover_from_dir`].
    pub killed: bool,
    /// The monitored result at shutdown (empty if the worker gave up).
    pub final_result: Vec<TopKEntry>,
    /// The monitor's cumulative metrics, those of the monitors a
    /// self-heal replaced included, with [`Metrics::resilience`] filled
    /// in by the supervisor.
    pub metrics: Metrics,
    /// Latency distributions observed by the worker (update phases,
    /// checkpoint writes) joined with the storage layer's disk-read
    /// histogram.
    pub latency: LatencySnapshot,
}

/// Called by the commit stage once per commit group, right after the
/// group's journal sync has advanced the
/// [durable mark](SupervisedPipeline::durable_mark). See
/// [`SupervisedPipeline::set_durable_hook`].
pub type DurableHook = Arc<dyn Fn() + Send + Sync>;

/// The durable mark, who to tell about it, and who may still write the
/// state directory, shared between the pipeline handle and its two stages.
#[derive(Default)]
struct DurableLine {
    mark: AtomicU64,
    hook: Mutex<Option<DurableHook>>,
    /// Held around every write to the state directory.
    writes: Mutex<()>,
    /// Set under `writes` when the apply stage stops: from then on no
    /// thread writes the state directory, and the pipeline is dead.
    stopped: AtomicBool,
    /// Set by the commit stage when a journal or slot write failed.
    failed: AtomicBool,
}

impl DurableLine {
    /// Fires the hook if the mark moved past `announced`. Without a hook
    /// nothing is recorded as announced, so one installed later still
    /// hears about everything the mark covers.
    fn announce(&self, announced: &mut u64) {
        let now = self.mark.load(Ordering::Acquire);
        if now == *announced {
            return;
        }
        let hook = match self.hook.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        if let Some(hook) = hook {
            *announced = now;
            hook();
        }
    }

    fn lock(&self) -> MutexGuard<'_, ()> {
        match self.writes.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The right to write the state directory until the guard drops;
    /// `None` once the apply stage has stopped.
    fn write_access(&self) -> Option<MutexGuard<'_, ()>> {
        let guard = self.lock();
        (!self.stopped()).then_some(guard)
    }

    /// Stops the pipeline: runs the apply stage's `last_writes` while no
    /// commit-stage write is in flight, then marks the pipeline stopped, so
    /// nothing writes the state directory once anyone can see it dead.
    fn stop(&self, last_writes: impl FnOnce()) {
        let _guard = self.lock();
        last_writes();
        self.stopped.store(true, Ordering::Release);
    }

    fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }
}

/// A monitoring server on two supervised threads, a commit stage and an
/// apply stage: validated ingest, panic containment and checkpoint-restart.
pub struct SupervisedPipeline {
    reports_tx: Option<SyncSender<TracedReport>>,
    events_rx: EventReceiver,
    worker: Option<JoinHandle<SupervisedReport>>,
    durable: Arc<DurableLine>,
    initial_result: Vec<TopKEntry>,
}

impl std::fmt::Debug for SupervisedPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedPipeline")
            .field("worker_alive", &self.worker.is_some())
            .finish_non_exhaustive()
    }
}

impl SupervisedPipeline {
    /// Spawns the supervised worker around an initialized monitor. The
    /// ingest gate is derived from the monitor: the monitored space is the
    /// grid's space, the unit count the monitor's. `capacity` bounds both
    /// the inbound report queue and the outbound event queue.
    pub fn spawn<A>(algorithm: A, config: ResilienceConfig, capacity: usize) -> Self
    where
        A: Checkpointable + Send + 'static,
    {
        let gate = IngestGate::new(IngestConfig {
            space: *algorithm.store().grid().space(),
            num_units: algorithm.num_units(),
            lease_ttl: None,
        });
        Self::spawn_with_gate(
            algorithm,
            gate,
            config,
            capacity,
            ResilienceStats::default(),
        )
    }

    /// Recovers after a process death: loads the newest valid durable slot
    /// from `dir` (see [`crate::durable`]) into a [`DurableImage`], folds
    /// the journaled wire reports into it — the gate's dedup state drops
    /// everything the slot already covers, so the fold is idempotent even
    /// when recovery fell back to the older slot — initializes the monitor
    /// once from the image, and resumes in the same directory.
    pub fn recover_from_dir<A>(
        dir: impl AsRef<Path>,
        store: Arc<dyn PlaceStore>,
        config: ResilienceConfig,
        capacity: usize,
    ) -> Result<Self, crate::checkpoint::CheckpointError>
    where
        A: Checkpointable + Send + 'static,
    {
        let (checkpoint, journal) = DurableState::load(&dir)?;
        let mut image = DurableImage::from_checkpoint(checkpoint, *store.grid().space())?;
        // Fold rejections are recovery bookkeeping (the slot already
        // covered those reports), not feed defects: they go to a scratch
        // counter and only the recovered-update count is carried forward.
        let mut scratch = ResilienceStats::default();
        let mut seed = ResilienceStats::default();
        for report in journal {
            if image.admit(report, &mut scratch).is_ok() {
                seed.updates_replayed += 1;
            }
        }
        let config = ResilienceConfig {
            state_dir: Some(dir.as_ref().to_path_buf()),
            ..config
        };
        let (algorithm, gate) = image.restore::<A>(store)?;
        Ok(Self::spawn_with_gate(
            algorithm, gate, config, capacity, seed,
        ))
    }

    /// Spawns the supervised stages around a live monitor and the gate it
    /// ran behind, so dedup decisions carry over (recovery);
    /// `initial_stats` seeds the resilience counters.
    fn spawn_with_gate<A>(
        algorithm: A,
        gate: IngestGate,
        config: ResilienceConfig,
        capacity: usize,
        initial_stats: ResilienceStats,
    ) -> Self
    where
        A: Checkpointable + Send + 'static,
    {
        assert!(capacity > 0, "capacity must be positive");
        let (reports_tx, reports_rx) = sync_channel::<TracedReport>(capacity);
        let (events_tx, events_rx) = sync_channel::<EventBatch>(capacity);
        // One group applying, one queued: the commit stage syncs the next
        // group meanwhile and waits here for the apply stage to catch up.
        let (groups_tx, groups_rx) = sync_channel::<Group>(1);
        let durable = Arc::new(DurableLine::default());
        // Events only carry changes, so whoever serves this pipeline's
        // top-k needs the state the worker starts from — which, after a
        // recovery, is the result over the folded journal.
        let initial_result = algorithm.result();
        // The spawn-time positions; both stages keep their own copy of them
        // from here on, the commit stage's behind the gate.
        let restart = algorithm.checkpoint();
        let image = DurableImage::with_gate(restart.clone(), gate);
        let apply_line = Arc::clone(&durable);
        let apply_config = config.clone();
        #[expect(
            clippy::expect_used,
            reason = "thread spawn fails only on OS resource exhaustion at construction — there is no monitor to degrade to yet"
        )]
        let applier = std::thread::Builder::new()
            .name("ctup-apply".into())
            .spawn(move || {
                apply(
                    algorithm,
                    restart,
                    &apply_config,
                    groups_rx,
                    events_tx,
                    &apply_line,
                )
            })
            .expect("spawn ctup-apply thread");
        let commit_line = Arc::clone(&durable);
        #[expect(
            clippy::expect_used,
            reason = "thread spawn fails only on OS resource exhaustion at construction — there is no monitor to degrade to yet"
        )]
        let worker = std::thread::Builder::new()
            .name("ctup-supervisor".into())
            .spawn(move || {
                let committed = commit(
                    image,
                    initial_stats,
                    &config,
                    reports_rx,
                    groups_tx,
                    &commit_line,
                );
                // The apply stage drains what was handed over and stops.
                let mut report = applier.join().unwrap_or_else(|_| gave_up_report());
                // The apply stage counts the self-heals, the commit stage
                // the rest.
                let (healed, seeded) = (report.metrics.resilience, committed.stats);
                report.metrics.resilience = ResilienceStats {
                    worker_panics: seeded.worker_panics + healed.worker_panics,
                    worker_restarts: seeded.worker_restarts + healed.worker_restarts,
                    storage_errors: seeded.storage_errors + healed.storage_errors,
                    ..seeded
                };
                report.reports_received = committed.reports_received;
                report
            })
            .expect("spawn ctup-supervisor thread");
        SupervisedPipeline {
            reports_tx: Some(reports_tx),
            events_rx: EventReceiver::new(events_rx),
            worker: Some(worker),
            durable,
            initial_result,
        }
    }

    /// The monitored result the worker started from: the algorithm's
    /// result at spawn, or — for [`recover_from_dir`](Self::recover_from_dir)
    /// — the result over the folded journal tail (the fold emits no
    /// events). [`events`](Self::events) carries every change from here.
    pub fn initial_result(&self) -> &[TopKEntry] {
        &self.initial_result
    }

    /// Installs the durable hook, replacing any earlier one. The commit
    /// stage calls it once per commit group — right after the group's
    /// journal sync, when the [durable mark](Self::durable_mark) has just
    /// moved over every report of the group, before the group is applied —
    /// and once more when it exits; a hook installed while the pipeline is
    /// idle hears about the mark the next time the commit stage runs dry.
    /// Never per report: a group holds everything that queued up while the
    /// previous one was being synced, so the busier the pipeline, the more
    /// reports one call covers. The hook runs on the commit stage's thread;
    /// it must not block and must not own this pipeline (hold a `Weak` at
    /// most).
    pub fn set_durable_hook(&self, hook: DurableHook) {
        let mut slot = match self.durable.hook.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        *slot = Some(hook);
    }

    /// Sends one stamped report, blocking while the queue is full. Returns
    /// [`SendError::WorkerDied`] once the worker has stopped (gave up, or a
    /// defect outside the contained region killed it).
    pub fn send(&self, report: StampedUpdate) -> Result<(), SendError> {
        self.send_traced(TracedReport::untraced(report))
    }

    /// Sends one report with its causal trace context, blocking while the
    /// queue is full. The worker records per-stage spans for it when
    /// [`ResilienceConfig::spans`] is set and the trace id is non-zero.
    pub fn send_traced(&self, report: TracedReport) -> Result<(), SendError> {
        let Some(tx) = self.reports_tx.as_ref().filter(|_| !self.durable.stopped()) else {
            // After shutdown() took the sender, or once the apply stage
            // stopped while the commit stage sat idle.
            return Err(SendError::WorkerDied);
        };
        tx.send(report).map_err(|_| SendError::WorkerDied)
    }

    /// Sends one stamped report without blocking; [`SendError::Full`] under
    /// backpressure, [`SendError::WorkerDied`] once the worker stopped.
    pub fn try_send(&self, report: StampedUpdate) -> Result<(), SendError> {
        self.try_send_traced(TracedReport::untraced(report))
    }

    /// Non-blocking variant of [`SupervisedPipeline::send_traced`].
    pub fn try_send_traced(&self, report: TracedReport) -> Result<(), SendError> {
        let Some(tx) = self.reports_tx.as_ref().filter(|_| !self.durable.stopped()) else {
            return Err(SendError::WorkerDied);
        };
        match tx.try_send(report) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(SendError::Full),
            Err(TrySendError::Disconnected(_)) => Err(SendError::WorkerDied),
        }
    }

    /// Whether the pipeline has stopped (killed, gave up, or was shut
    /// down): true as soon as the apply stage stops, even while the commit
    /// stage still waits for a report, and from then on no thread writes
    /// the state directory, so recovery may open it. Unlike
    /// [`SupervisedPipeline::try_send`] this is a pure probe: callers with
    /// nothing to send can still detect a silent death — an engine that
    /// died after the last report was handed off would otherwise be
    /// noticed only when the next report arrives.
    pub fn worker_dead(&self) -> bool {
        self.durable.stopped() || self.worker.as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// The event stream. Batch `seq` numbers are *effective* update
    /// sequence numbers; across a restart no batch is duplicated.
    pub fn events(&self) -> &EventReceiver {
        &self.events_rx
    }

    /// How many reports (in channel order, counted from this pipeline's
    /// spawn) the commit stage has taken *durable ownership* of: journaled
    /// to the write-ahead log when a `state_dir` is configured, or
    /// terminally rejected by the gate. A report covered by this mark
    /// survives a process death — [`recover_from_dir`](Self::recover_from_dir)
    /// folds it in — so the front door acks a report only once the mark
    /// covers it: acks never run ahead of the journal. They may run ahead
    /// of the engine by the group being applied, the one queued behind it
    /// and the one the commit stage waits to hand over. Without a
    /// `state_dir` the mark advances on receipt (there is no durability
    /// contract to wait for).
    pub fn durable_mark(&self) -> u64 {
        self.durable.mark.load(Ordering::Acquire)
    }

    /// Closes the report channel, drains both stages and returns their
    /// report.
    pub fn shutdown(mut self) -> SupervisedReport {
        self.reports_tx.take();
        // `worker` is `Some` until this method consumes `self`, so the
        // `None` arm is unreachable; it degrades like a defective worker.
        let outcome = self.worker.take().map(|w| w.join());
        match outcome {
            Some(Ok(report)) => report,
            // The supervisor contains processor panics; reaching this arm
            // means the supervision loop itself is defective. Degrade to a
            // gave-up report rather than propagating.
            _ => gave_up_report(),
        }
    }
}

impl Drop for SupervisedPipeline {
    fn drop(&mut self) {
        self.reports_tx.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The report of a pipeline whose supervision itself failed: it gave up,
/// and nothing else is known.
fn gave_up_report() -> SupervisedReport {
    SupervisedReport {
        reports_received: 0,
        updates_processed: 0,
        events_emitted: 0,
        gave_up: true,
        killed: false,
        final_result: Vec::new(),
        metrics: Metrics::default(),
        latency: LatencySnapshot::default(),
    }
}

/// One accepted report of a commit group, past the gate.
struct Admitted {
    trace: u64,
    /// Where the report's engine-apply span starts, when it is traced.
    apply_start: Option<u64>,
    /// The report's update.
    update: LocationUpdate,
}

/// A commit group on its way from the commit stage to the apply stage:
/// gated, journaled and covered by the durable mark.
struct Group {
    /// The group's accepted reports; the gate's rejections stay behind.
    admitted: Vec<Admitted>,
    /// When the group's end landed a slot: its write time in nanoseconds.
    checkpoint: Option<u64>,
}

/// The commit stage's share of the [`SupervisedReport`].
struct Committed {
    reports_received: u64,
    /// The seed, the gate's counters and `checkpoints_taken`.
    stats: ResilienceStats,
}

/// The commit stage, on the `ctup-supervisor` thread, until the report
/// channel closes, the apply stage stops or a durable write fails. It works
/// in commit groups: it takes the first report (blocking when the channel
/// is empty) and every report queued behind it, up to the next durable
/// slot; gate-admits them all; journals the accepted ones with one write
/// and one sync; advances the durable mark over the whole group and
/// announces it once; lands the slot if one is due; and hands the group to
/// the apply stage, waiting while one group is already queued there.
fn commit(
    mut image: DurableImage,
    mut stats: ResilienceStats,
    config: &ResilienceConfig,
    reports_rx: Receiver<TracedReport>,
    groups: SyncSender<Group>,
    line: &DurableLine,
) -> Committed {
    let spans = config.spans.as_deref();
    let mut reports_received = 0u64;
    // A journal or slot write that failed broke the durability contract:
    // both stages stop instead of running with silent non-durability.
    let mut failed = false;
    // Durable persistence: open (or create) the state directory and write
    // the spawn-time state as the first slot, so there is always a valid
    // recovery point on disk.
    let mut durable = None;
    if let Some(dir) = config.state_dir.as_deref() {
        let opened = line.write_access().map(|_writes| {
            // Disk writes under the lock: it orders them before the apply stage's last ones; that stage takes it only to stop
            let mut d = DurableState::open(dir)?;
            d.checkpoint(&image.slot()).map(|()| d)
        });
        match opened {
            Some(Ok(d)) => durable = Some(d),
            _ => failed = true,
        }
    }
    // The durable-slot cadence; never without a state directory.
    let every = match config.checkpoint_every {
        every if every > 0 && durable.is_some() => every,
        _ => u64::MAX,
    };
    // Effective updates admitted since the last durable slot.
    let mut since_slot = 0u64;
    // The durable mark as of the last announcement.
    let mut announced = 0u64;
    // The journal records of a group's accepted reports, reused.
    let mut records: Vec<StampedUpdate> = Vec::new();
    'recv: while !failed {
        let first = match reports_rx.try_recv() {
            Ok(traced) => traced,
            Err(TryRecvError::Disconnected) => break 'recv,
            Err(TryRecvError::Empty) => {
                // Run dry: announce whatever a hook installed since the
                // last group has not heard yet, then sleep.
                line.announce(&mut announced);
                match reports_rx.recv() {
                    Ok(traced) => traced,
                    Err(_) => break 'recv,
                }
            }
        };
        let handed = {
            // Nothing is taken, written or acked once the apply stage
            // stopped. The directory stays locked until the group is marked
            // and its slot, if one is due, has landed.
            let Some(_writes) = line.write_access() else {
                break 'recv;
            };
            // The group is the first report plus whatever queued behind it,
            // cut at the next durable slot, so the gate state and the positions
            // a slot captures always cover the same reports.
            let room = every.saturating_sub(since_slot).max(1);
            let mut group = Vec::new();
            let mut taken = 0u64;
            records.clear();
            // The trace of the group's last accepted report, which carries the
            // group-end checkpoint's span.
            let mut last_trace = 0u64;
            let mut next = Some(first);
            while let Some(TracedReport {
                report,
                trace,
                handed_nanos,
            }) = next
            {
                taken += 1;
                // A report is traced when a sink is configured and the
                // report carries a trace id.
                let apply_start = (spans.is_some() && trace != 0).then(|| {
                    if handed_nanos != 0 {
                        handed_nanos
                    } else {
                        now_nanos()
                    }
                });
                // The slot's image folds the report in: a slot is a
                // function of the journal, never of the engine.
                if let Ok(update) = image.admit(report, &mut stats) {
                    records.push(report);
                    last_trace = trace;
                    since_slot += 1;
                    group.push(Admitted {
                        trace,
                        apply_start,
                        update,
                    });
                }
                next = if taken < room {
                    reports_rx.try_recv().ok()
                } else {
                    None
                };
            }
            reports_received += taken;
            if let Some(d) = durable.as_mut() {
                // Write-ahead: the group's accepted reports hit the journal in
                // one write and one sync before any of them is handed to the
                // apply stage. Traced reports share the group's wal-append span.
                let traced = |a: &&Admitted| a.apply_start.is_some();
                let wal_start = group.iter().any(|a| traced(&a)).then(now_nanos);
                // A disk write under the lock: it orders it before the apply stage's last ones; that stage takes it only to stop
                let appended = d.append_all(&records);
                if let (Some(s), Some(w0)) = (spans, wal_start) {
                    let w1 = now_nanos();
                    for a in group.iter().filter(traced) {
                        s.record_stage(a.trace, Stage::WalAppend, 0, w0, w1, true);
                    }
                }
                if appended.is_err() {
                    failed = true;
                    break 'recv;
                }
            }
            // The whole group is now recoverable (journaled, unpersisted by
            // configuration, or terminally rejected by the gate): the front
            // door may ack it, and is told so once. This happens *before* the
            // group is applied, so a kill mid-group loses nothing acked.
            line.mark.fetch_add(taken, Ordering::Release);
            line.announce(&mut announced);
            // The durable slot, at the group's end only: the gate state it
            // captures then covers exactly the updates the positions do.
            let mut checkpoint = None;
            if let Some(d) = durable.as_mut().filter(|_| since_slot >= every) {
                let c0 = now_nanos();
                if d.checkpoint(&image.slot()).is_err() {
                    failed = true;
                    break 'recv;
                }
                let c1 = now_nanos();
                if let Some(s) = spans.filter(|_| last_trace != 0) {
                    s.record_stage(last_trace, Stage::Checkpoint, 0, c0, c1, true);
                }
                since_slot = 0;
                stats.checkpoints_taken += 1;
                checkpoint = Some(c1.saturating_sub(c0));
            }
            Group {
                admitted: group,
                checkpoint,
            }
        };
        if groups.send(handed).is_err() {
            break 'recv; // the apply stage stopped
        }
    }
    if failed {
        line.failed.store(true, Ordering::Release);
    }
    // Whatever the mark covered when the commit stage stopped is still
    // owed an ack, whether it stopped for shutdown, a kill or a give-up.
    line.announce(&mut announced);
    Committed {
        reports_received,
        stats,
    }
}

/// The apply stage, on the `ctup-apply` thread: applies every group the
/// commit stage hands over, in order, until the hand-off closes, a kill
/// fires or recovery is exhausted. It owns the engine and its self-heal,
/// the event stream, the latency histograms, the apply-side spans and the
/// crash dump.
/// `restart` holds the engine configuration and the unit positions at
/// spawn.
fn apply<A>(
    algorithm: A,
    restart: Checkpoint,
    config: &ResilienceConfig,
    groups: Receiver<Group>,
    events_tx: SyncSender<EventBatch>,
    line: &DurableLine,
) -> SupervisedReport
where
    A: Checkpointable,
{
    let store = algorithm.store();
    let mut server = Server::new(algorithm);
    // The restart point: a self-heal initializes from these positions,
    // kept current after every successful apply.
    let Checkpoint {
        config: engine_config,
        unit_positions: mut positions,
        ..
    } = restart;
    // The engine counters of the monitors a self-heal replaced, so the
    // report covers the whole run and not only the last monitor.
    let mut replaced = Metrics::default();
    let mut stats = ResilienceStats::default();
    let mut panic_at: HashSet<u64> = config.panic_at.iter().copied().collect();
    let mut eff_seq = 0u64;
    let mut events_emitted = 0u64;
    let mut restarts = RestartBudget::new(MAX_RESTARTS);
    let mut gave_up = false;
    let mut killed = false;
    // The unit of the update the stage stopped at, when it stopped at one.
    let mut stopped_unit = None;
    let mut obs = ObsHub::default();

    'groups: for Group {
        admitted,
        checkpoint,
    } in groups.iter()
    {
        for Admitted {
            trace,
            apply_start,
            update,
        } in admitted
        {
            // Span recording is armed per report: a sink must be configured
            // and the report must carry a trace id. Gate-rejected replays
            // never reach this stage — a deduplicated redelivery must not
            // re-record the engine-apply span its first delivery produced.
            let sink = apply_start.and(config.spans.as_deref());
            // Simulated process death: stop mid-stream with no final
            // checkpoint.
            if config.kill_at == Some(eff_seq) {
                killed = true;
                stopped_unit = Some(update.unit.0);
                break 'groups;
            }
            loop {
                // One-shot injected fault: consumed even if recovery later
                // fails, so a retry of the same seq proceeds normally.
                let inject = panic_at.remove(&eff_seq);
                let t0 = sink.map(|_| now_nanos());
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    #[expect(
                        clippy::panic,
                        reason = "deliberate fault injection — this panic exists to exercise the catch_unwind/recovery path around it"
                    )]
                    if inject {
                        panic!("injected fault at effective update {eff_seq}");
                    }
                    server.ingest(update)
                }));
                match outcome {
                    Ok(Ok((events, update_stats))) => {
                        obs.record_update(update_stats.maintain_nanos, update_stats.access_nanos);
                        let publish_start = match (sink, t0, apply_start) {
                            (Some(s), Some(t0), Some(a0)) => {
                                let t1 = now_nanos();
                                // Engine-apply covers hand-off (channel
                                // wait, gate, journal, the queue between
                                // the stages) up to the successful apply
                                // attempt; retries after a contained
                                // crash fold into it.
                                s.record_stage(trace, Stage::EngineApply, 0, a0, t0, true);
                                // Aggregate phase split: the measured
                                // maintain+access window is the
                                // illumination phase, the rest of the
                                // ingest (result diff, event derivation)
                                // the merge.
                                let phase = update_stats
                                    .maintain_nanos
                                    .saturating_add(update_stats.access_nanos);
                                let mid = t0.saturating_add(phase).min(t1);
                                s.record_stage(trace, Stage::ShardPhase, 0, t0, mid, true);
                                s.record_stage(trace, Stage::Merge, 0, mid, t1, true);
                                Some(t1)
                            }
                            _ => None,
                        };
                        if !events.is_empty() {
                            events_emitted += convert::count64(events.len());
                            // Consumers hanging up must not stop monitoring.
                            let _ = events_tx.send(EventBatch {
                                seq: eff_seq,
                                events,
                            });
                        }
                        if let (Some(s), Some(p0)) = (sink, publish_start) {
                            // Recorded even for an empty batch: the publish
                            // span closes the causal chain whether or not
                            // this update changed the top-k.
                            s.record_stage(trace, Stage::SnapshotPublish, 0, p0, now_nanos(), true);
                        }
                        eff_seq += 1;
                        if let Some(p) = positions.get_mut(update.unit.index()) {
                            *p = update.new;
                        }
                        break; // next effective update
                    }
                    crashed => {
                        // A panic (`Err`) and a surfaced storage error
                        // (`Ok(Err)`) are contained identically: either way
                        // the processor may be mid-update, so re-initialize
                        // it from the positions it was last correct at.
                        if crashed.is_err() {
                            stats.worker_panics += 1;
                        } else {
                            stats.storage_errors += 1;
                        }
                        // Restore is init from the current positions, so
                        // nothing is replayed. The live gate is kept: it
                        // is outside the contained region. Each attempt
                        // spends one restart: restore reads every cell, so
                        // a storage fault there is retried like one in
                        // apply.
                        loop {
                            if !restarts.spend(Instant::now()) {
                                gave_up = true;
                                stopped_unit = Some(update.unit.0);
                                break 'groups;
                            }
                            stats.worker_restarts += 1;
                            let restart = Checkpoint {
                                config: engine_config.clone(),
                                unit_positions: positions.clone(),
                                gate: None,
                            };
                            let Ok(recovered) = recover::<A>(restart, store.clone()) else {
                                continue;
                            };
                            // The new engine may hold a different place
                            // tied at SK than the one that crashed: it
                            // takes over what subscribers hold, and the
                            // retry diffs against that.
                            let crashed = std::mem::replace(&mut server, recovered);
                            replaced = crashed.algorithm().metrics().after(&replaced);
                            server.take_over_published(crashed);
                            break; // ...then retry the crashing update.
                        }
                    }
                }
            }
        }
        if let Some(nanos) = checkpoint {
            obs.record_checkpoint(nanos);
        }
    }

    // The hand-off closed on a failed durable write, or the stage stopped
    // on its own.
    gave_up |= line.failed.load(Ordering::Acquire);
    // The last write to the state directory, after the commit stage's
    // last one and before anyone can see the pipeline dead: the crash dump
    // next to the slots. Best-effort — a dump failure must not mask the
    // report of the death itself.
    line.stop(|| {
        if let Some(dir) = config.state_dir.as_deref().filter(|_| gave_up || killed) {
            let outcome = if killed { "killed" } else { "gave_up" };
            let path = dir.join(FLIGHT_RECORDER_FILE);
            let _ = dump_crash(&path, outcome, eff_seq, stopped_unit);
        }
    });

    let (final_result, metrics) = if gave_up || killed {
        // The monitor state is suspect after an unrecovered crash — and
        // gone entirely after a simulated process death: report the
        // resilience counters but no result.
        (
            Vec::new(),
            Metrics {
                resilience: stats,
                ..Metrics::default()
            },
        )
    } else {
        let mut metrics = server.algorithm().metrics().after(&replaced);
        metrics.resilience = stats;
        (server.result(), metrics)
    };
    SupervisedReport {
        reports_received: 0,
        updates_processed: eff_seq,
        events_emitted,
        gave_up,
        killed,
        final_result,
        metrics,
        latency: obs.snapshot(store.stats().read_latency()),
    }
}

/// Writes the crash dump, its terminal line, to `path`. Synced, since the
/// process is dying.
fn dump_crash(path: &Path, outcome: &str, seq: u64, unit: Option<u32>) -> std::io::Result<()> {
    let mut terminal = ObjectWriter::new();
    terminal.field_str("outcome", outcome).field_u64("seq", seq);
    if let Some(unit) = unit {
        terminal.field_u64("unit", u64::from(unit));
    }
    let mut text = terminal.finish();
    text.push('\n');
    let mut file = std::fs::File::create(path)?;
    std::io::Write::write_all(&mut file, text.as_bytes())?;
    file.sync_all()
}

/// How many restarts the supervisor attempts inside any sliding
/// [`RESTART_WINDOW`] before giving up: sparse faults over a long run are
/// survived, a storm is not.
pub const MAX_RESTARTS: u32 = 8;

/// The sliding window [`MAX_RESTARTS`] counts restarts in.
pub const RESTART_WINDOW: Duration = Duration::from_secs(60);

/// The restarts spent inside the last [`RESTART_WINDOW`].
struct RestartBudget {
    max: usize,
    spent: VecDeque<Instant>,
}

impl RestartBudget {
    fn new(max_restarts: u32) -> Self {
        RestartBudget {
            max: usize::try_from(max_restarts).unwrap_or(usize::MAX),
            spent: VecDeque::new(),
        }
    }

    /// Spends one restart at `now`, after refunding those that left the
    /// window; `false` when the window already holds `max`.
    fn spend(&mut self, now: Instant) -> bool {
        while self
            .spent
            .front()
            .is_some_and(|&at| now.saturating_duration_since(at) >= RESTART_WINDOW)
        {
            self.spent.pop_front();
        }
        if self.spent.len() >= self.max {
            return false;
        }
        self.spent.push_back(now);
        true
    }
}

/// Restores a monitor from `restart` — one fresh initialization — inside
/// `catch_unwind`, so a deterministic defect cannot crash recovery itself.
/// A storage fault or panic fails this attempt, and the caller spends
/// another restart on the next one.
fn recover<A>(restart: Checkpoint, store: Arc<dyn PlaceStore>) -> Result<Server<A>, ()>
where
    A: Checkpointable,
{
    catch_unwind(AssertUnwindSafe(|| {
        A::restore(restart, store).map(Server::new)
    }))
    .map_or(Err(()), |restored| restored.map_err(|_| ()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CtupConfig;
    use crate::ingest::stamp_stream;
    use crate::opt::OptCtup;
    use crate::pipeline::EventBatch;
    use crate::types::{LocationUpdate, Place, PlaceId, UnitId};
    use ctup_spatial::{Grid, Point};
    use ctup_storage::{CellLocalStore, PlaceStore};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn places() -> Vec<Place> {
        (0..30)
            .map(|i| {
                Place::point(
                    PlaceId(i),
                    Point::new((i % 6) as f64 / 6.0 + 0.05, (i / 6) as f64 / 5.0 + 0.05),
                    1 + i % 3,
                )
            })
            .collect()
    }

    fn monitor(units: &[Point]) -> OptCtup {
        let store: Arc<dyn PlaceStore> =
            Arc::new(CellLocalStore::build(Grid::unit_square(6), places()));
        OptCtup::new(CtupConfig::with_k(5), store, units).expect("init")
    }

    fn unit_points(n: u32) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i as f64 + 0.5) / n as f64, 0.5))
            .collect()
    }

    fn updates(n: usize, num_units: u32) -> Vec<LocationUpdate> {
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| LocationUpdate {
                unit: UnitId((next() * num_units as f64) as u32 % num_units),
                new: Point::new(next() * 0.999, next() * 0.999),
            })
            .collect()
    }

    /// What an unsupervised server publishes for `stream`, batch by batch.
    fn direct_run(
        units: &[Point],
        stream: &[LocationUpdate],
    ) -> (Server<OptCtup>, Vec<EventBatch>) {
        let mut direct = Server::new(monitor(units));
        let mut batches = Vec::new();
        for (seq, &u) in stream.iter().enumerate() {
            let (events, _) = direct.ingest(u).expect("ingest");
            if !events.is_empty() {
                batches.push(EventBatch {
                    seq: seq as u64,
                    events,
                });
            }
        }
        (direct, batches)
    }

    /// Feeds `stream` while a scoped thread borrows the pipeline's event
    /// receiver and takes the first `expect` batches off it (shutdown
    /// consumes the pipeline, receiver included, so they are read first).
    fn feed_and_drain(
        pipeline: &SupervisedPipeline,
        stream: Vec<LocationUpdate>,
        expect: usize,
    ) -> Vec<EventBatch> {
        std::thread::scope(|s| {
            let drain = s.spawn(|| {
                (0..expect)
                    .map(|_| pipeline.events().recv().expect("worker alive"))
                    .collect()
            });
            for report in stamp_stream(stream) {
                pipeline.send(report).expect("worker alive");
            }
            drain.join().expect("drain thread")
        })
    }

    /// Baseline: with a clean feed and no faults the supervised pipeline
    /// publishes exactly what a direct server run derives.
    #[test]
    fn clean_feed_matches_direct_run() {
        let units = unit_points(4);
        let stream = updates(150, 4);

        let (direct, direct_batches) = direct_run(&units, &stream);

        let pipeline =
            SupervisedPipeline::spawn(monitor(&units), ResilienceConfig::default(), 1024);
        let piped = feed_and_drain(&pipeline, stream, direct_batches.len());
        let report = pipeline.shutdown();

        assert!(!report.gave_up);
        assert_eq!(report.reports_received, 150);
        assert_eq!(report.updates_processed, 150);
        assert_eq!(piped, direct_batches);
        assert_eq!(report.events_emitted, direct.events_emitted());
        assert_eq!(report.final_result, direct.result());
        assert_eq!(report.metrics.resilience.worker_panics, 0);
        // A healthy run fills the latency histograms.
        assert_eq!(report.latency.update_total_nanos.count(), 150);
        assert_eq!(report.latency.update_maintain_nanos.count(), 150);
    }

    /// The dedicated restart test: one injected panic mid-run forces
    /// exactly one restart, and the published event stream is *identical*
    /// to the crash-free run — zero duplicated, zero missing batches.
    #[test]
    fn one_restart_zero_duplicate_events() {
        let units = unit_points(4);
        let stream = updates(200, 4);

        let (direct, direct_batches) = direct_run(&units, &stream);

        let config = ResilienceConfig {
            checkpoint_every: 64,
            panic_at: vec![100],
            ..ResilienceConfig::default()
        };
        let pipeline = SupervisedPipeline::spawn(monitor(&units), config, 1024);
        let piped = feed_and_drain(&pipeline, stream, direct_batches.len());
        let report = pipeline.shutdown();

        assert!(!report.gave_up);
        assert_eq!(report.metrics.resilience.worker_panics, 1);
        assert_eq!(report.metrics.resilience.worker_restarts, 1);
        // The panic at eff 100 re-initializes from the positions after
        // update 99: nothing is replayed, and without a state directory
        // `checkpoint_every` takes no checkpoint.
        assert_eq!(report.metrics.resilience.updates_replayed, 0);
        assert_eq!(report.metrics.resilience.checkpoints_taken, 0);
        assert_eq!(report.updates_processed, 200);
        assert_eq!(piped, direct_batches, "no duplicated or missing batches");
        assert_eq!(report.events_emitted, direct.events_emitted());
        assert_eq!(report.final_result, direct.result());
    }

    /// The receiver is shared by reference, the way the door's pump and a
    /// `last_good_topk` caller share it: two threads draining `events()`
    /// see every batch exactly once between them, and `try_iter()` on the drained (still
    /// connected) channel ends instead of waiting for the worker. Before
    /// anyone drains, `try_send` meets backpressure as `SendError::Full`,
    /// and what it accepted is not lost.
    #[test]
    fn two_threads_drain_events_exactly_once() {
        let units = unit_points(4);
        let stream = updates(300, 4);
        let (direct, direct_batches) = direct_run(&units, &stream);
        let expected: Vec<u64> = direct_batches.iter().map(|b| b.seq).collect();
        assert!(expected.len() > 8, "the stream must outgrow both queues");

        // Capacity far below the stream: the worker blocks publishing
        // unless both consumers keep taking batches.
        let pipeline = SupervisedPipeline::spawn(monitor(&units), ResilienceConfig::default(), 4);
        // Nobody drains yet: the worker stalls on the full event queue, the
        // update queue fills behind it, and `try_send` refuses instead of
        // blocking.
        let mut reports = stamp_stream(stream).into_iter().peekable();
        while let Some(&report) = reports.peek() {
            match pipeline.try_send(report) {
                Ok(()) => {
                    reports.next();
                }
                Err(SendError::Full) => break,
                Err(SendError::WorkerDied) => panic!("worker died under backpressure"),
            }
        }
        assert!(reports.peek().is_some(), "try_send never reported Full");
        let taken = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(60);
        let consume = || {
            let mut seen = Vec::new();
            while taken.load(Ordering::SeqCst) < expected.len() && Instant::now() < deadline {
                for batch in pipeline.events().try_iter() {
                    taken.fetch_add(1, Ordering::SeqCst);
                    seen.push(batch.seq);
                }
                std::thread::yield_now();
            }
            seen
        };
        let mut seen = std::thread::scope(|s| {
            let a = s.spawn(consume);
            let b = s.spawn(consume);
            for report in reports {
                pipeline.send(report).expect("worker alive");
            }
            let mut seen = a.join().expect("consumer a");
            seen.extend(b.join().expect("consumer b"));
            seen
        });
        seen.sort_unstable();
        assert_eq!(seen, expected, "each batch to exactly one consumer");
        assert_eq!(pipeline.events().try_iter().count(), 0);
        let report = pipeline.shutdown();
        assert_eq!(report.events_emitted, direct.events_emitted());
    }

    /// Every recovery consumes a restart budget slot; once exhausted the
    /// worker reports `gave_up` instead of looping forever, and both send
    /// paths answer the dead worker with a typed error, never a panic.
    #[test]
    fn gives_up_after_max_restarts() {
        let units = unit_points(2);
        // One panic more than the budget, at consecutive updates: each
        // retry succeeds and the next update panics again.
        let config = ResilienceConfig {
            panic_at: (0..=u64::from(MAX_RESTARTS)).collect(),
            ..ResilienceConfig::default()
        };
        let pipeline = SupervisedPipeline::spawn(monitor(&units), config, 64);
        let stream = stamp_stream(updates(40, 2));
        for &report in &stream {
            if pipeline.send(report).is_err() {
                break; // worker already gave up and hung up the channel
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !pipeline.worker_dead() {
            assert!(Instant::now() < deadline, "worker never gave up");
            std::thread::yield_now();
        }
        assert_eq!(pipeline.send(stream[0]), Err(SendError::WorkerDied));
        assert_eq!(pipeline.try_send(stream[0]), Err(SendError::WorkerDied));
        let report = pipeline.shutdown();
        assert!(report.gave_up);
        assert_eq!(
            report.metrics.resilience.worker_panics,
            u64::from(MAX_RESTARTS) + 1
        );
        assert_eq!(
            report.metrics.resilience.worker_restarts,
            u64::from(MAX_RESTARTS)
        );
        assert!(report.final_result.is_empty());
    }

    /// The budget counts restarts inside a sliding window: one that left
    /// the window is refunded, and inside it the budget is refused.
    #[test]
    fn the_restart_budget_refunds_restarts_that_left_the_window() {
        let t0 = Instant::now();
        let mut budget = RestartBudget::new(2);
        assert!(budget.spend(t0));
        assert!(budget.spend(t0 + Duration::from_secs(30)));
        assert!(!budget.spend(t0 + RESTART_WINDOW - Duration::from_millis(1)));
        // The restart at t0 has left the window; the one at 30 s has not.
        assert!(budget.spend(t0 + RESTART_WINDOW));
        assert!(!budget.spend(t0 + RESTART_WINDOW + Duration::from_secs(29)));
        assert!(budget.spend(t0 + RESTART_WINDOW + Duration::from_secs(30)));
        assert!(!RestartBudget::new(0).spend(t0));
    }

    /// Malformed and replayed wire reports are filtered by the gate and
    /// never reach the monitor; counters record each reason.
    #[test]
    fn gate_rejections_are_counted_not_fatal() {
        let units = unit_points(2);
        let pipeline = SupervisedPipeline::spawn(monitor(&units), ResilienceConfig::default(), 64);
        let good = StampedUpdate {
            seq: 1,
            ts: 1,
            update: LocationUpdate {
                unit: UnitId(0),
                new: Point::new(0.3, 0.3),
            },
        };
        pipeline.send(good).expect("worker alive");
        pipeline.send(good).expect("worker alive"); // duplicate
        pipeline
            .send(StampedUpdate {
                seq: 2,
                ts: 2,
                update: LocationUpdate {
                    unit: UnitId(0),
                    new: Point::new(f64::NAN, 0.3),
                },
            })
            .expect("worker alive");
        pipeline
            .send(StampedUpdate {
                seq: 1,
                ts: 2,
                update: LocationUpdate {
                    unit: UnitId(9),
                    new: Point::new(0.5, 0.5),
                },
            })
            .expect("worker alive");
        let report = pipeline.shutdown();
        assert!(!report.gave_up);
        assert_eq!(report.reports_received, 4);
        assert_eq!(report.updates_processed, 1);
        let r = &report.metrics.resilience;
        assert_eq!(r.duplicates_dropped, 1);
        assert_eq!(r.rejected_non_finite, 1);
        assert_eq!(r.rejected_unknown_unit, 1);
    }

    /// A store whose `read_cell` fails exactly once, on a chosen call
    /// number — the deterministic stand-in for a disk read that exhausted
    /// its retry budget.
    struct FailingStore {
        inner: CellLocalStore,
        fail_on: std::sync::atomic::AtomicU64,
        calls: std::sync::atomic::AtomicU64,
    }

    impl PlaceStore for FailingStore {
        fn grid(&self) -> &Grid {
            self.inner.grid()
        }
        fn num_places(&self) -> usize {
            self.inner.num_places()
        }
        fn read_cell(
            &self,
            cell: ctup_spatial::CellId,
        ) -> Result<std::borrow::Cow<'_, [Place]>, ctup_storage::StorageError> {
            use std::sync::atomic::Ordering;
            let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            if n == self.fail_on.load(Ordering::Relaxed) {
                return Err(ctup_storage::StorageError::Io {
                    page: 0,
                    attempts: 4,
                });
            }
            self.inner.read_cell(cell)
        }
        fn stats(&self) -> &ctup_storage::StorageStats {
            self.inner.stats()
        }
        fn for_each_place(
            &self,
            f: &mut dyn FnMut(&Place),
        ) -> Result<(), ctup_storage::StorageError> {
            self.inner.for_each_place(f)
        }
    }

    /// A storage error surfaced mid-update is contained exactly like a
    /// panic: counted under `storage_errors`, recovered via
    /// checkpoint-restart, and the final result is unaffected because the
    /// retry of the same update succeeds.
    #[test]
    fn storage_error_is_contained_like_a_panic() {
        let units = unit_points(4);
        let stream = updates(150, 4);

        let mut direct = Server::new(monitor(&units));
        for &u in &stream {
            direct.ingest(u).expect("ingest");
        }

        let store = Arc::new(FailingStore {
            inner: CellLocalStore::build(Grid::unit_square(6), places()),
            fail_on: std::sync::atomic::AtomicU64::new(0),
            calls: std::sync::atomic::AtomicU64::new(0),
        });
        let alg = OptCtup::new(CtupConfig::with_k(5), store.clone(), &units).expect("init");
        // Arm the one-shot failure for the first post-init cell read.
        let armed = store.calls.load(std::sync::atomic::Ordering::Relaxed) + 1;
        store
            .fail_on
            .store(armed, std::sync::atomic::Ordering::Relaxed);

        let pipeline = SupervisedPipeline::spawn(alg, ResilienceConfig::default(), 1024);
        for report in stamp_stream(stream) {
            pipeline.send(report).expect("worker alive");
        }
        let report = pipeline.shutdown();
        assert!(!report.gave_up);
        assert_eq!(report.metrics.resilience.storage_errors, 1);
        assert_eq!(report.metrics.resilience.worker_panics, 0);
        assert_eq!(report.metrics.resilience.worker_restarts, 1);
        assert_eq!(report.final_result, direct.result());
    }

    /// How many reports of a `stamp_stream` feed a slot covers: the
    /// per-unit sequence numbers count from 1, so they sum to it.
    fn covered(checkpoint: &Checkpoint) -> u64 {
        let gate = checkpoint.gate.as_ref().expect("gate");
        gate.units.iter().filter_map(|u| u.last_seq).sum()
    }

    fn temp_state_dir() -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ctup-supervisor-{}-{n}", std::process::id()))
    }

    /// A killed worker leaves its crash dump next to the checkpoint slots:
    /// exactly one line, `killed` at the kill's sequence number, even with
    /// a span sink armed. The engine-apply spans of the last reports
    /// applied before the kill stay in the sink, which `serve --span-dump`
    /// writes out at exit.
    #[test]
    #[cfg_attr(miri, ignore)] // the dump lives on the real filesystem
    fn kill_dumps_flight_recorder_jsonl() {
        let dir = temp_state_dir();
        let sink = Arc::new(SpanSink::new(1 << 16));
        let units = unit_points(4);
        let config = ResilienceConfig {
            checkpoint_every: 16,
            state_dir: Some(dir.clone()),
            kill_at: Some(200),
            spans: Some(Arc::clone(&sink)),
            ..ResilienceConfig::default()
        };
        let pipeline = SupervisedPipeline::spawn(monitor(&units), config, 1024);
        for (i, report) in stamp_stream(updates(300, 4)).into_iter().enumerate() {
            let traced = TracedReport {
                report,
                trace: 1 + i as u64,
                handed_nanos: 1 + i as u64,
            };
            if pipeline.send_traced(traced).is_err() {
                break; // the worker died at the kill point
            }
        }
        let report = pipeline.shutdown();
        assert!(report.killed);
        let dump = std::fs::read_to_string(dir.join(FLIGHT_RECORDER_FILE)).expect("read dump");
        assert_eq!(dump.lines().count(), 1, "{dump}");
        assert!(
            dump.starts_with("{\"outcome\":\"killed\",\"seq\":200,\"unit\":"),
            "{dump}"
        );
        assert!(sink
            .snapshot()
            .spans
            .iter()
            .any(|s| s.stage == Stage::EngineApply && (191..=200).contains(&s.trace)));
        // Latency still describes the 200 updates applied before the kill.
        assert_eq!(report.latency.update_total_nanos.count(), 200);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A worker that exhausts its restart budget dumps its one line:
    /// `gave_up` at the update that kept crashing.
    #[test]
    #[cfg_attr(miri, ignore)] // the dump lives on the real filesystem
    fn give_up_dumps_flight_recorder_jsonl() {
        let dir = temp_state_dir();
        let units = unit_points(2);
        let last = u64::from(MAX_RESTARTS);
        let config = ResilienceConfig {
            panic_at: (0..=last).collect(),
            state_dir: Some(dir.clone()),
            ..ResilienceConfig::default()
        };
        let pipeline = SupervisedPipeline::spawn(monitor(&units), config, 64);
        let stamped = stamp_stream(updates(20, 2));
        let unit = stamped[usize::try_from(last).expect("fits")].update.unit.0;
        for report in stamped {
            if pipeline.send(report).is_err() {
                break;
            }
        }
        let report = pipeline.shutdown();
        assert!(report.gave_up);
        let dump = std::fs::read_to_string(dir.join(FLIGHT_RECORDER_FILE)).expect("read dump");
        assert_eq!(
            dump,
            format!("{{\"outcome\":\"gave_up\",\"seq\":{last},\"unit\":{unit}}}\n")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A traced report records the full supervisor-side causal chain —
    /// wal-append, engine-apply, shard-phase, merge, snapshot-publish —
    /// under its trace id, with parent links intact; untraced reports
    /// record nothing.
    #[test]
    #[cfg_attr(miri, ignore)] // durable state lives on the real filesystem
    fn traced_report_records_causal_chain() {
        use ctup_obs::{span_id, SpanSink};

        let dir = temp_state_dir();
        let sink = Arc::new(SpanSink::new(1024));
        let units = unit_points(2);
        let config = ResilienceConfig {
            state_dir: Some(dir.clone()),
            spans: Some(Arc::clone(&sink)),
            ..ResilienceConfig::default()
        };
        let pipeline = SupervisedPipeline::spawn(monitor(&units), config, 64);
        let stamped = stamp_stream(updates(2, 2));
        let trace = 0xFACE_FEEDu64;
        pipeline
            .send_traced(TracedReport {
                report: stamped[0],
                trace,
                handed_nanos: ctup_obs::now_nanos(),
            })
            .expect("worker alive");
        pipeline.send(stamped[1]).expect("worker alive"); // untraced

        // Dropping without `shutdown` still closes the channel and joins
        // the worker, so every span below has been recorded.
        drop(pipeline);

        let snap = sink.snapshot();
        let stages: Vec<Stage> = snap.spans.iter().map(|s| s.stage).collect();
        for stage in [
            Stage::WalAppend,
            Stage::EngineApply,
            Stage::ShardPhase,
            Stage::Merge,
            Stage::SnapshotPublish,
        ] {
            assert!(stages.contains(&stage), "missing {stage:?}");
        }
        for span in &snap.spans {
            assert_eq!(span.trace, trace, "untraced report must record nothing");
            assert!(span.end >= span.start);
        }
        // Parent links follow the canonical chain: merge hangs off
        // engine-apply, the publish off the merge.
        let merge = snap
            .spans
            .iter()
            .find(|s| s.stage == Stage::Merge)
            .expect("merge span");
        assert_eq!(merge.parent, span_id(trace, Stage::EngineApply, 0));
        let publish = snap
            .spans
            .iter()
            .find(|s| s.stage == Stage::SnapshotPublish)
            .expect("publish span");
        assert_eq!(publish.parent, span_id(trace, Stage::Merge, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The durable mark is the ack watermark: it covers a report once the
    /// worker has journaled (or terminally rejected) it, and at quiescence
    /// it equals the number of reports received.
    #[test]
    fn durable_mark_tracks_terminal_ownership() {
        let units = unit_points(2);
        let pipeline = SupervisedPipeline::spawn(monitor(&units), ResilienceConfig::default(), 64);
        assert_eq!(pipeline.durable_mark(), 0);
        let good = StampedUpdate {
            seq: 1,
            ts: 1,
            update: LocationUpdate {
                unit: UnitId(0),
                new: Point::new(0.3, 0.3),
            },
        };
        pipeline.send(good).expect("worker alive");
        pipeline.send(good).expect("worker alive"); // duplicate: rejected, still terminal
                                                    // The worker drains asynchronously; poll briefly for quiescence.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while pipeline.durable_mark() < 2 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pipeline.durable_mark(), 2);
        let report = pipeline.shutdown();
        assert_eq!(report.reports_received, 2);
    }

    /// The mark as a hook sees it (a hook holds a `Weak` at most).
    fn mark_of(durable: &std::sync::Weak<DurableLine>) -> u64 {
        durable
            .upgrade()
            .map_or(0, |d| d.mark.load(Ordering::Acquire))
    }

    /// The durable hook: fired once per commit group, never without news,
    /// and once more for what the mark covered when the worker exits — so
    /// a burst costs far fewer calls than it has reports.
    #[test]
    fn durable_hook_fires_per_group_not_per_report() {
        use std::sync::atomic::AtomicUsize;
        let units = unit_points(4);
        let pipeline =
            SupervisedPipeline::spawn(monitor(&units), ResilienceConfig::default(), 1024);
        // What the mark read each time the hook fired.
        let fired = Arc::new(Mutex::new(Vec::new()));
        let durable = Arc::downgrade(&pipeline.durable);
        let calls = Arc::new(AtomicUsize::new(0));
        pipeline.set_durable_hook({
            let (fired, calls) = (Arc::clone(&fired), Arc::clone(&calls));
            Arc::new(move || {
                fired.lock().expect("hook log").push(mark_of(&durable));
                calls.fetch_add(1, Ordering::SeqCst);
            })
        });
        let wait_for_calls = |n: usize| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while calls.load(Ordering::SeqCst) < n {
                assert!(
                    std::time::Instant::now() < deadline,
                    "hook call {n} never came"
                );
                std::thread::yield_now();
            }
        };
        let stamped = stamp_stream(updates(300, 4));
        for &report in &stamped[..200] {
            pipeline.send(report).expect("worker alive");
        }
        // However the burst interleaved with the worker, the last call of
        // the episode announces all of it...
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while fired.lock().expect("hook log").last() != Some(&200) {
            assert!(std::time::Instant::now() < deadline, "200 never announced");
            std::thread::yield_now();
        }
        // ...in far fewer calls than reports (a worker that took every
        // report as a group of its own would make 200)...
        let after_burst = calls.load(Ordering::SeqCst);
        assert!(after_burst < 200, "{after_burst} calls for 200 reports");
        // ...and an idle worker stays silent.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(calls.load(Ordering::SeqCst), after_burst);
        // A lone report on the idle worker is announced by itself.
        pipeline.send(stamped[200]).expect("worker alive");
        wait_for_calls(after_burst + 1);
        assert_eq!(fired.lock().expect("hook log").last(), Some(&201));
        // Every announcement carried news.
        let log = fired.lock().expect("hook log").clone();
        assert!(log.windows(2).all(|w| w[0] < w[1]), "{log:?}");
        assert!(!pipeline.shutdown().gave_up);
    }

    /// A worker that stops still announces what its mark covered: the
    /// reports journaled before a kill are owed their acks.
    #[test]
    fn durable_hook_fires_once_more_when_the_worker_exits() {
        let units = unit_points(4);
        let config = ResilienceConfig {
            kill_at: Some(30),
            ..ResilienceConfig::default()
        };
        let stamped = stamp_stream(updates(31, 4));
        let pipeline = SupervisedPipeline::spawn(monitor(&units), config, 1024);
        let last = Arc::new(AtomicU64::new(0));
        let durable = Arc::downgrade(&pipeline.durable);
        pipeline.set_durable_hook({
            let last = Arc::clone(&last);
            Arc::new(move || last.store(mark_of(&durable), Ordering::SeqCst))
        });
        for &report in &stamped {
            pipeline.send(report).expect("queue has room");
        }
        let report = pipeline.shutdown();
        assert!(report.killed);
        // Report 31 was taken (marked) and then met the kill.
        assert_eq!(last.load(Ordering::SeqCst), 31);
    }

    /// With a state dir, the mark must not run ahead of the journal: after
    /// a kill, every report the mark covered is recoverable from disk.
    #[test]
    #[cfg_attr(miri, ignore)] // durable state lives on the real filesystem
    fn durable_mark_never_outruns_the_journal() {
        let dir = temp_state_dir();
        let units = unit_points(4);
        // No periodic checkpoints: the journal then holds *every* appended
        // report since spawn, so the write-ahead claim is exactly
        // checkable: mark <= journal length at all times.
        let config = ResilienceConfig {
            checkpoint_every: 0,
            state_dir: Some(dir.clone()),
            kill_at: Some(30),
            ..ResilienceConfig::default()
        };
        let pipeline = SupervisedPipeline::spawn(monitor(&units), config, 1024);
        for report in stamp_stream(updates(60, 4)) {
            if pipeline.send(report).is_err() {
                break;
            }
        }
        // The worker drains asynchronously; wait for it to have journaled
        // at least one report before sampling the mark. Sampling the mark
        // BEFORE reading the journal keeps the check sound: the journal
        // only grows, so `mark <= journal` read in this order never
        // passes spuriously.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut marked = pipeline.durable_mark();
        while marked == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
            marked = pipeline.durable_mark();
        }
        let report = pipeline.shutdown();
        assert!(report.killed);
        assert!(marked > 0, "the worker journaled something before dying");
        let (_, journal) = DurableState::load(&dir).expect("load");
        let journaled = convert::count64(journal.len());
        assert!(
            marked <= journaled,
            "mark {marked} covered more than the {journaled} journaled reports"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The full kill-and-restart drill: the worker dies abruptly mid-stream
    /// and the test then tears the newest slot (a death
    /// mid-checkpoint-write); recovery falls back to the older slot, replays the journaled tail,
    /// and — after the full feed is re-delivered with the gate dropping
    /// what was already applied — lands on exactly the direct run's result.
    /// Two inputs:
    /// * exactly `kill_at + 1` reports reach the worker, as in the ledger's
    ///   recovery cycles, so what the journal holds is known up front;
    /// * the feed runs on to the end of the commit group the kill lands in,
    ///   and the rest is sent once the pipeline is dead, which refuses all
    ///   of it: the kill lands inside a group that runs past it, and the
    ///   slot at that group's end may land before the kill fires. Recovery
    ///   must match a direct run over exactly what the journal holds.
    #[test]
    #[cfg_attr(miri, ignore)] // durable state lives on the real filesystem
    fn kill_and_recover_resumes_oracle_exact() {
        for whole_feed in [false, true] {
            kill_and_recover(whole_feed);
        }
    }

    fn kill_and_recover(whole_feed: bool) {
        const EVERY: u64 = 32;
        let dir = temp_state_dir();
        let units = unit_points(4);
        let stream = updates(200, 4);
        let (direct, _) = direct_run(&units, &stream);

        let config = ResilienceConfig {
            checkpoint_every: EVERY,
            state_dir: Some(dir.clone()),
            kill_at: Some(120),
            ..ResilienceConfig::default()
        };
        let pipeline = SupervisedPipeline::spawn(monitor(&units), config, 1024);
        let stamped = stamp_stream(stream.clone());
        // The group the kill lands in ends at the next slot, after report
        // 128.
        let (sent, after_death) = stamped.split_at(if whole_feed { 128 } else { 121 });
        for &report in sent {
            if pipeline.send(report).is_err() {
                break; // the worker died at the kill point
            }
        }
        if whole_feed {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !pipeline.worker_dead() {
                assert!(Instant::now() < deadline, "the kill never fired");
                std::thread::sleep(Duration::from_millis(1));
            }
            for &report in after_death {
                assert!(matches!(pipeline.send(report), Err(SendError::WorkerDied)));
            }
        }
        let report = pipeline.shutdown();
        assert!(report.killed);
        assert!(!report.gave_up);
        assert_eq!(report.updates_processed, 120);
        assert!(report.final_result.is_empty());
        // Nothing writes the directory once the pipeline is dead: tearing
        // the newest slot now is a death mid-checkpoint-write.
        DurableState::tear_newest_slot(&dir).expect("tear the newest slot");

        // The torn newest slot forces fallback to the one before it, slot
        // `s`, taken after report `base = EVERY * (s - 1)`; `stamp_stream`
        // stamps report `n` with tick `n`. The journal holds reports
        // `base + 1` up to the last one journaled.
        let (checkpoint, journal) = DurableState::load(&dir).expect("load");
        let base = covered(&checkpoint);
        let ticks: Vec<u64> = journal.iter().map(|r| r.ts).collect();
        let journaled = usize::try_from(*ticks.last().expect("a journal tail")).expect("fits");
        assert_eq!(
            ticks,
            (base + 1..=convert::count64(journaled)).collect::<Vec<_>>()
        );
        if whole_feed {
            // Report 121 was journaled before the kill, and nothing past the
            // group it closes. The commit stage lands slot 5 (report 128)
            // before it hands that group's last reports over, unless the
            // apply stage stopped first: the fallback is slot 4 (report 96)
            // exactly when the journal reaches report 128, and slot 3
            // (report 64) otherwise.
            assert!((121..=128).contains(&journaled), "journaled {journaled}");
            assert_eq!(base, if journaled == 128 { 96 } else { 64 });
        } else {
            // The commit stage never got past slot 4 (report 96).
            assert_eq!((base, journaled), (64, 121));
        }
        // Epoch `e` starts with slot `e`, written after report
        // `EVERY * (e - 1)`; the next slot follows report `EVERY * e`. No
        // epoch of either journal file may hold a report past it — a torn
        // fallback would lose one the next epoch in its file overwrote.
        let fallback = base / EVERY + 1;
        for epoch in [fallback, fallback + 1] {
            for report in crate::durable::read_epoch(&dir, epoch) {
                assert!(
                    (EVERY * (epoch - 1) + 1..=EVERY * epoch).contains(&report.ts),
                    "epoch {epoch} holds report {}",
                    report.ts
                );
            }
        }

        let store: Arc<dyn PlaceStore> =
            Arc::new(CellLocalStore::build(Grid::unit_square(6), places()));
        let recovered = SupervisedPipeline::recover_from_dir::<OptCtup>(
            &dir,
            store,
            ResilienceConfig {
                checkpoint_every: EVERY,
                ..ResilienceConfig::default()
            },
            1024,
        )
        .expect("recover");
        // The recovered pipeline starts from the replayed state — journal
        // tail included — and says so: that is what a sink over it must
        // be seeded with, since the replay published no events.
        let (replayed, _) = direct_run(&units, &stream[..journaled]);
        assert_eq!(recovered.initial_result(), replayed.result());
        // Re-deliver the whole feed: the restored gate rejects everything
        // already applied before the kill, then the remainder flows.
        for &report in &stamped {
            recovered.send(report).expect("worker alive");
        }
        let out = recovered.shutdown();
        assert!(!out.gave_up);
        assert!(!out.killed);
        // The journal replay had real work to do: reports `base + 1` to
        // the last one journaled — report 121 was journaled (write-ahead)
        // but never applied before the kill at effective update 120. With
        // exactly 121 reports sent that is 57 replayed and 79 left for the
        // re-delivery.
        let replayed_count = convert::count64(journaled) - base;
        assert_eq!(out.metrics.resilience.updates_replayed, replayed_count);
        assert_eq!(out.updates_processed, 200 - convert::count64(journaled));
        if !whole_feed {
            assert_eq!((replayed_count, out.updates_processed), (57, 79));
        }
        assert_eq!(out.final_result, direct.result());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A death while slot 3 is written: slot 3 is torn, and epoch 3 holds
    /// the reports journaled after it. Recovery from slot 2 over epochs 2
    /// and 3 resumes at exactly the journaled state and finishes the feed
    /// on the direct run's result.
    #[test]
    #[cfg_attr(miri, ignore)] // durable state lives on the real filesystem
    fn recovery_over_a_slot_that_never_landed_is_oracle_exact() {
        const EVERY: usize = 32;
        let dir = temp_state_dir();
        let units = unit_points(4);
        let stream = updates(200, 4);
        let (direct, _) = direct_run(&units, &stream);
        let stamped = stamp_stream(stream.clone());

        // What a process leaves when it dies with slot 3 half written.
        let mut server = Server::new(monitor(&units));
        let mut gate = IngestGate::new(IngestConfig {
            space: *server.algorithm().store().grid().space(),
            num_units: units.len(),
            lease_ttl: None,
        });
        let mut state = DurableState::open(&dir).expect("open");
        let mut scratch = ResilienceStats::default();
        for group in stamped[..80].chunks(EVERY) {
            let mut c = server.algorithm().checkpoint();
            c.gate = Some(gate.state());
            state.checkpoint(&c).expect("checkpoint");
            state.append_all(group).expect("append");
            for &report in group {
                for update in gate.admit(report, &mut scratch).expect("admit") {
                    server.ingest(update).expect("ingest");
                }
            }
        }
        drop(state);
        DurableState::tear_newest_slot(&dir).expect("tear slot 3");

        let store: Arc<dyn PlaceStore> =
            Arc::new(CellLocalStore::build(Grid::unit_square(6), places()));
        let config = ResilienceConfig {
            checkpoint_every: 32,
            ..ResilienceConfig::default()
        };
        let recovered = SupervisedPipeline::recover_from_dir::<OptCtup>(&dir, store, config, 1024)
            .expect("recover");
        assert_eq!(recovered.initial_result(), server.result());
        for &report in &stamped {
            recovered.send(report).expect("worker alive");
        }
        let out = recovered.shutdown();
        assert!(!out.gave_up);
        assert_eq!(out.metrics.resilience.updates_replayed, 80 - 32);
        assert_eq!(out.updates_processed, 200 - 80);
        assert_eq!(out.final_result, direct.result());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A slot write that fails stops both stages at the failing
    /// checkpoint. Here slot 2 cannot land: once the spawn slot is down,
    /// `slot-b.ckpt` is replaced by a non-empty directory. The group whose
    /// end is due for slot 2 is journaled and marked, then the pipeline
    /// stops on its own — dead with no further report sent — without
    /// handing that group to the apply stage. Everything its mark covered
    /// is recoverable from slot 1 over epoch 1, `load` skipping the
    /// directory.
    #[test]
    #[cfg_attr(miri, ignore)] // durable state lives on the real filesystem
    fn a_slot_that_fails_to_land_stops_the_worker() {
        const EVERY: usize = 16;
        let dir = temp_state_dir();
        let obstacle = dir.join("slot-b.ckpt");
        let units = unit_points(4);
        let stream = updates(200, 4);
        let (direct, _) = direct_run(&units, &stream);
        let stamped = stamp_stream(stream.clone());
        let config = ResilienceConfig {
            checkpoint_every: convert::count64(EVERY),
            state_dir: Some(dir.clone()),
            ..ResilienceConfig::default()
        };

        let pipeline = SupervisedPipeline::spawn(monitor(&units), config.clone(), 1024);
        let until = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !done() {
                assert!(Instant::now() < deadline, "{what}");
                std::thread::yield_now();
            }
        };
        // The first group's mark comes after the spawn slot.
        pipeline.send(stamped[0]).expect("worker alive");
        until("report 1 never taken", &|| pipeline.durable_mark() == 1);
        std::fs::remove_file(&obstacle).expect("slot-b.ckpt");
        std::fs::create_dir_all(obstacle.join("occupied")).expect("obstacle");
        for &report in &stamped[1..EVERY] {
            pipeline.send(report).expect("worker alive");
        }
        until("the pipeline never stopped", &|| pipeline.worker_dead());
        assert_eq!(pipeline.durable_mark(), convert::count64(EVERY));
        assert_eq!(pipeline.send(stamped[EVERY]), Err(SendError::WorkerDied));
        let report = pipeline.shutdown();
        assert!(report.gave_up);
        assert_eq!(report.reports_received, convert::count64(EVERY));
        assert_eq!(report.metrics.resilience.checkpoints_taken, 0);
        assert!(
            report.updates_processed < convert::count64(EVERY),
            "the group due for the slot was applied"
        );
        let taken = EVERY;

        let (checkpoint, journal) = DurableState::load(&dir).expect("load");
        assert_eq!(covered(&checkpoint), 0, "slot 1, the base");
        assert_eq!(journal, stamped[..taken].to_vec());
        let (replayed, _) = direct_run(&units, &stream[..taken]);
        let store = || -> Arc<dyn PlaceStore> {
            Arc::new(CellLocalStore::build(Grid::unit_square(6), places()))
        };
        // Recovery replays all of it, though its own base slot cannot land
        // either while the directory is there.
        let recovered =
            SupervisedPipeline::recover_from_dir::<OptCtup>(&dir, store(), config.clone(), 1024)
                .expect("recover");
        assert_eq!(recovered.initial_result(), replayed.result());
        assert!(recovered.shutdown().gave_up);

        std::fs::remove_dir_all(&obstacle).expect("clear the obstacle");
        let recovered =
            SupervisedPipeline::recover_from_dir::<OptCtup>(&dir, store(), config, 1024)
                .expect("recover");
        assert_eq!(recovered.initial_result(), replayed.result());
        for &report in &stamped {
            recovered.send(report).expect("worker alive");
        }
        let out = recovered.shutdown();
        assert!(!out.gave_up);
        assert_eq!(out.final_result, direct.result());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// More than k places tie at SK in this feed, and the engine
    /// initialized at the crash (from the positions after effective update
    /// 7) holds a different tied place than the one that crashed at 8.
    /// What subscribers fold from the event stream must still be a true
    /// top-k after every batch and the final result at shutdown: the
    /// recovered server diffs against the published map it took over, not
    /// against its own.
    #[test]
    fn a_tie_divergent_self_heal_keeps_the_sink_exact() {
        use crate::algorithm::CtupAlgorithm;
        use crate::oracle::Oracle;
        use crate::server::MonitorEvent;
        use crate::types::Safety;
        use std::collections::HashMap;
        const CRASH: usize = 8;
        let units = unit_points(4);
        let stream = updates(200, 4);
        let config = CtupConfig::with_k(5);

        // The scenario: at the crash the engine initialized from the live
        // positions answers the same safeties with a different place set.
        let mut crashed = monitor(&units);
        let mut at_crash = units.clone();
        for &u in &stream[..CRASH] {
            crashed.handle_update(u).expect("clean store");
            at_crash[u.unit.index()] = u.new;
        }
        let rederived = monitor(&at_crash);
        let safeties = |r: &[TopKEntry]| r.iter().map(|e| e.safety).collect::<Vec<_>>();
        assert_ne!(rederived.result(), crashed.result(), "no tie divergence");
        assert_eq!(safeties(&rederived.result()), safeties(&crashed.result()));

        let mut pipeline = SupervisedPipeline::spawn(
            monitor(&units),
            ResilienceConfig {
                panic_at: vec![CRASH as u64],
                ..ResilienceConfig::default()
            },
            1024,
        );
        for report in stamp_stream(stream.clone()) {
            pipeline.send(report).expect("worker alive");
        }
        // Close the feed: the worker drains it, then hangs up the events.
        pipeline.reports_tx.take();
        let oracle = Oracle::new(places());
        let mut published: HashMap<PlaceId, Safety> = pipeline
            .initial_result()
            .iter()
            .map(|e| (e.place, e.safety))
            .collect();
        let mut positions = units.clone();
        let mut applied = 0;
        while let Ok(batch) = pipeline.events().recv() {
            let seq = usize::try_from(batch.seq).expect("fits");
            for u in &stream[applied..=seq] {
                positions[u.unit.index()] = u.new;
            }
            applied = seq + 1;
            for event in batch.events {
                match event {
                    MonitorEvent::Entered { place, safety } => {
                        published.insert(place, safety);
                    }
                    MonitorEvent::SafetyChanged { place, new, .. } => {
                        published.insert(place, new);
                    }
                    MonitorEvent::Left { place } => {
                        published.remove(&place);
                    }
                }
            }
            assert_eq!(published.len(), 5, "batch {seq}: {published:?}");
            let mut held: Vec<Safety> = published.values().copied().collect();
            held.sort_unstable();
            let truth = oracle.result(&positions, config.protection_radius, config.mode);
            assert_eq!(held, safeties(&truth), "batch {seq}");
        }
        let report = pipeline.shutdown();
        assert!(!report.gave_up);
        assert_eq!(report.metrics.resilience.worker_restarts, 1);
        let final_result: HashMap<PlaceId, Safety> = report
            .final_result
            .iter()
            .map(|e| (e.place, e.safety))
            .collect();
        assert_eq!(published, final_result);
    }

    /// Restore re-reads every cell, so a storage fault there is contained
    /// like one in apply: the failed attempt spends a restart and the next
    /// one succeeds, instead of the worker giving up at once.
    #[test]
    fn a_fault_during_restore_spends_a_restart() {
        use crate::algorithm::CtupAlgorithm;
        use std::sync::atomic::AtomicU64;
        const CRASH: usize = 100;
        let units = unit_points(4);
        let stream = updates(150, 4);
        let store = || {
            Arc::new(FailingStore {
                inner: CellLocalStore::build(Grid::unit_square(6), places()),
                fail_on: AtomicU64::new(0),
                calls: AtomicU64::new(0),
            })
        };
        // The engine is deterministic: the pipeline reads exactly what a
        // direct run reads up to the crash, so restore's first read is the
        // next call.
        let probe = store();
        let mut direct = OptCtup::new(CtupConfig::with_k(5), probe.clone(), &units).expect("init");
        for &u in &stream[..CRASH] {
            direct.handle_update(u).expect("clean store");
        }
        let restore_starts = probe.calls.load(Ordering::Relaxed) + 1;
        for &u in &stream[CRASH..] {
            direct.handle_update(u).expect("clean store");
        }

        let failing = store();
        let alg = OptCtup::new(CtupConfig::with_k(5), failing.clone(), &units).expect("init");
        failing.fail_on.store(restore_starts, Ordering::Relaxed);
        let config = ResilienceConfig {
            checkpoint_every: 64,
            panic_at: vec![CRASH as u64],
            ..ResilienceConfig::default()
        };
        let pipeline = SupervisedPipeline::spawn(alg, config, 1024);
        for report in stamp_stream(stream) {
            pipeline.send(report).expect("worker alive");
        }
        let report = pipeline.shutdown();
        assert!(failing.calls.load(Ordering::Relaxed) >= restore_starts);
        assert!(!report.gave_up);
        assert_eq!(report.metrics.resilience.worker_panics, 1);
        // One attempt failed inside restore, the second recovered.
        assert_eq!(report.metrics.resilience.worker_restarts, 2);
        // Restore is init from the current positions: nothing replayed.
        assert_eq!(report.metrics.resilience.updates_replayed, 0);
        assert_eq!(report.updates_processed, 150);
        let safeties = |r: &[TopKEntry]| r.iter().map(|e| e.safety).collect::<Vec<_>>();
        assert_eq!(safeties(&report.final_result), safeties(&direct.result()));
    }

    /// A self-heal is one fresh initialization: after a panic at effective
    /// update `CRASH`, the pipeline ends exactly where `OptCtup::new` over
    /// the positions before `CRASH`, fed the rest of the stream, ends —
    /// byte-equal result — and its logical counters are the crashed
    /// engine's plus that engine's. Nothing from before the crash is
    /// replayed into the new engine.
    #[test]
    fn self_heal_is_a_fresh_initialization() {
        use crate::algorithm::CtupAlgorithm;
        const CRASH: usize = 100;
        let units = unit_points(4);
        let stream = updates(200, 4);

        let mut at_crash = units.clone();
        for u in &stream[..CRASH] {
            at_crash[u.unit.index()] = u.new;
        }
        let mut crashed = monitor(&units);
        for &u in &stream[..CRASH] {
            crashed.handle_update(u).expect("clean store");
        }
        let mut fresh = monitor(&at_crash);
        for &u in &stream[CRASH..] {
            fresh.handle_update(u).expect("clean store");
        }

        let config = ResilienceConfig {
            panic_at: vec![CRASH as u64],
            ..ResilienceConfig::default()
        };
        let pipeline = SupervisedPipeline::spawn(monitor(&units), config, 1024);
        for report in stamp_stream(stream) {
            pipeline.send(report).expect("worker alive");
        }
        let report = pipeline.shutdown();
        assert!(!report.gave_up);
        assert_eq!(report.metrics.resilience.worker_restarts, 1);
        assert_eq!(report.final_result, fresh.result());
        // Wall-clock phases and the supervisor's own counters aside, the
        // metrics are the crashed engine's up to the crash plus the fresh
        // engine's after it: every update is counted once.
        let logical = |m: &Metrics| Metrics {
            maintain_nanos: 0,
            access_nanos: 0,
            resilience: ResilienceStats::default(),
            ..m.clone()
        };
        assert_eq!(
            logical(&report.metrics),
            logical(&fresh.metrics().after(crashed.metrics()))
        );
        assert_eq!(report.metrics.updates_processed, report.updates_processed);
    }

    /// Recovery after a process death folds the journal into the slot's
    /// positions and initializes once: over a fresh store it reads exactly
    /// what a single `OptCtup::new` over the folded positions reads, and
    /// starts from that engine's result.
    #[test]
    #[cfg_attr(miri, ignore)] // durable state lives on the real filesystem
    fn recovery_folds_the_journal_into_one_initialization() {
        use crate::algorithm::CtupAlgorithm;
        const KILL: u64 = 60;
        let dir = temp_state_dir();
        let units = unit_points(4);
        let stream = updates(200, 4);
        let config = ResilienceConfig {
            checkpoint_every: 0,
            state_dir: Some(dir.clone()),
            kill_at: Some(KILL),
            ..ResilienceConfig::default()
        };
        let pipeline = SupervisedPipeline::spawn(monitor(&units), config, 1024);
        for &report in &stamp_stream(stream.clone())[..=KILL as usize] {
            pipeline.send(report).expect("queue has room");
        }
        assert!(pipeline.shutdown().killed);
        let (_, journal) = DurableState::load(&dir).expect("load");
        let tail = journal.len();
        assert!(tail >= 50, "a {tail}-report tail");

        let mut folded = units.clone();
        for u in &stream[..tail] {
            folded[u.unit.index()] = u.new;
        }
        let store = || -> Arc<dyn PlaceStore> {
            Arc::new(CellLocalStore::build(Grid::unit_square(6), places()))
        };
        let reads = |s: &Arc<dyn PlaceStore>| {
            let snap = s.stats().snapshot();
            (snap.cell_reads, snap.records_read)
        };
        let single = store();
        let fresh =
            OptCtup::new(CtupConfig::with_k(5), Arc::clone(&single), &folded).expect("init");

        let over = store();
        let recovered = SupervisedPipeline::recover_from_dir::<OptCtup>(
            &dir,
            Arc::clone(&over),
            ResilienceConfig::default(),
            1024,
        )
        .expect("recover");
        assert_eq!(reads(&over), reads(&single));
        assert_eq!(recovered.initial_result(), fresh.result());
        let out = recovered.shutdown();
        assert_eq!(
            out.metrics.resilience.updates_replayed,
            convert::count64(tail)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The durable image is the commit stage's fold: a stream folded into
    /// the spawn-time image lands the slot the commit stage lands for the
    /// same reports, and folding the stream a second
    /// time changes nothing, since the gate drops every report again. A
    /// restore hands the image's gate over with the engine: a redelivered
    /// report is dropped as a duplicate, and a fresh one is applied.
    #[test]
    #[cfg_attr(miri, ignore)] // durable state lives on the real filesystem
    fn an_image_folds_a_journal_once_into_the_commit_stages_slot() {
        use crate::checkpoint::DurableImage;
        let dir = temp_state_dir();
        let engine = monitor(&unit_points(4));
        let store = engine.store();
        let space = *store.grid().space();
        let mut image = DurableImage::from_checkpoint(engine.checkpoint(), space).expect("valid");
        // Every group is one report and lands a slot, so the newest slot
        // covers the whole stream.
        let config = ResilienceConfig {
            checkpoint_every: 1,
            state_dir: Some(dir.clone()),
            ..ResilienceConfig::default()
        };
        let pipeline = SupervisedPipeline::spawn(engine, config, 64);
        let stamped = stamp_stream(updates(40, 4));
        let mut stats = ResilienceStats::default();
        for &report in &stamped {
            pipeline.send(report).expect("worker alive");
            image.admit(report, &mut stats).expect("a fresh report");
        }
        assert!(!pipeline.shutdown().killed);
        let (landed, journal) = DurableState::load(&dir).expect("load");
        assert!(
            journal.is_empty(),
            "{} reports past the slot",
            journal.len()
        );
        let folded = image.slot();
        assert_eq!(landed, folded);
        for &report in &stamped {
            assert!(image.admit(report, &mut stats).is_err());
        }
        assert_eq!(image.slot(), folded);

        let last = stamped[stamped.len() - 1];
        let (config, seed) = (ResilienceConfig::default(), ResilienceStats::default());
        let (engine, gate) = image.restore::<OptCtup>(store).expect("restore");
        let restored = SupervisedPipeline::spawn_with_gate(engine, gate, config, 64, seed);
        restored.send(last).expect("worker alive"); // redelivery
        let fresh = StampedUpdate {
            seq: last.seq + 1,
            ..last
        };
        restored.send(fresh).expect("worker alive");
        let out = restored.shutdown();
        assert_eq!(out.metrics.resilience.duplicates_dropped, 1);
        assert_eq!(out.updates_processed, 1);
        assert_eq!(out.metrics.updates_processed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every file of a state directory with its bytes, by name.
    fn dir_bytes(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("state dir")
            .flatten()
            .map(|e| (e.file_name(), std::fs::read(e.path()).expect("read")))
            .collect();
        files.sort();
        files
    }

    /// Once the apply stage stops — at a kill or a give-up — the pipeline
    /// is dead with no further report sent, and no byte of the state
    /// directory changes after that: not by the commit stage, which may
    /// still wait for a report, and not at shutdown.
    #[test]
    #[cfg_attr(miri, ignore)] // durable state lives on the real filesystem
    fn a_stopped_pipeline_is_dead_and_leaves_its_directory_alone() {
        let units = unit_points(4);
        let stamped = stamp_stream(updates(100, 4));
        let kill = ResilienceConfig {
            kill_at: Some(40),
            ..ResilienceConfig::default()
        };
        // The panic that exhausts the budget is the one at 40.
        let give_up = ResilienceConfig {
            panic_at: (40 - u64::from(MAX_RESTARTS)..=40).collect(),
            ..ResilienceConfig::default()
        };
        for config in [kill, give_up] {
            let dir = temp_state_dir();
            let config = ResilienceConfig {
                checkpoint_every: 16,
                state_dir: Some(dir.clone()),
                ..config
            };
            let pipeline = SupervisedPipeline::spawn(monitor(&units), config, 1024);
            // Exactly the reports up to the fault: none arrives after it.
            for &report in &stamped[..41] {
                pipeline.send(report).expect("worker alive");
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            while !pipeline.worker_dead() {
                assert!(Instant::now() < deadline, "the pipeline never died");
                std::thread::sleep(Duration::from_millis(1));
            }
            let dead = dir_bytes(&dir);
            std::thread::sleep(Duration::from_millis(50));
            assert!(dir_bytes(&dir) == dead, "the directory changed after death");
            let report = pipeline.shutdown();
            assert!(report.killed != report.gave_up);
            assert!(dir.join(FLIGHT_RECORDER_FILE).exists());
            assert!(dir_bytes(&dir) == dead, "shutdown wrote the directory");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// `DurableState::load`, run from another thread while a pipeline
    /// journals and checkpoints, never misses a report the durable mark
    /// covered before the load began: the slot it reads and the epochs
    /// after it hold every one of them.
    #[test]
    #[cfg_attr(miri, ignore)] // durable state lives on the real filesystem
    fn a_concurrent_load_never_misses_a_marked_report() {
        const REPORTS: usize = 3000;
        let dir = temp_state_dir();
        let units = unit_points(4);
        let stamped = stamp_stream(updates(REPORTS, 4));
        let config = ResilienceConfig {
            checkpoint_every: 16,
            state_dir: Some(dir.clone()),
            ..ResilienceConfig::default()
        };
        // Room for every event batch: nobody drains them here.
        let pipeline = SupervisedPipeline::spawn(monitor(&units), config, 4096);
        let fed = AtomicBool::new(false);
        let loads = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut loads = 0u64;
                while !fed.load(Ordering::SeqCst) {
                    let marked = pipeline.durable_mark();
                    let Ok((checkpoint, journal)) = DurableState::load(&dir) else {
                        assert_eq!(marked, 0, "no slot under a moved mark");
                        continue;
                    };
                    // Report `n` carries tick `n`: the slot covers the
                    // first `covered` reports, the journal the ones after
                    // it, without a gap.
                    let base = covered(&checkpoint);
                    let ticks: Vec<u64> = journal.iter().map(|r| r.ts).collect();
                    let end = base + convert::count64(ticks.len());
                    assert!(
                        ticks.iter().copied().eq(base + 1..=end),
                        "{base}: {ticks:?}"
                    );
                    assert!(end >= marked, "mark {marked}, covered {end}");
                    loads += 1;
                }
                loads
            });
            for &report in &stamped {
                pipeline.send(report).expect("worker alive");
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            while pipeline.durable_mark() < convert::count64(REPORTS) {
                assert!(Instant::now() < deadline, "the feed was never journaled");
                std::thread::sleep(Duration::from_millis(1));
            }
            fed.store(true, Ordering::SeqCst);
            reader.join().expect("reader")
        });
        let report = pipeline.shutdown();
        assert!(!report.gave_up);
        assert!(report.metrics.resilience.checkpoints_taken >= 100);
        assert!(loads > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// After the spawn slot the state directory is a fixed set of files
    /// of fixed lengths: more than ten checkpoints at `checkpoint_every` 16
    /// create, grow, truncate and remove nothing.
    #[test]
    #[cfg_attr(miri, ignore)] // durable state lives on the real filesystem
    fn checkpoints_change_no_file_length_after_the_spawn_slot() {
        let dir = temp_state_dir();
        let units = unit_points(4);
        let stamped = stamp_stream(updates(200, 4));
        let config = ResilienceConfig {
            checkpoint_every: 16,
            state_dir: Some(dir.clone()),
            ..ResilienceConfig::default()
        };
        let pipeline = SupervisedPipeline::spawn(monitor(&units), config, 1024);
        let lengths = || {
            dir_bytes(&dir)
                .into_iter()
                .map(|(name, bytes)| (name, bytes.len()))
                .collect::<Vec<_>>()
        };
        pipeline.send(stamped[0]).expect("worker alive");
        let deadline = Instant::now() + Duration::from_secs(5);
        while pipeline.durable_mark() == 0 {
            assert!(Instant::now() < deadline, "report 1 never taken");
            std::thread::yield_now();
        }
        let spawned = lengths();
        let names: Vec<_> = spawned
            .iter()
            .map(|(name, _)| name.to_string_lossy())
            .collect();
        assert_eq!(
            names,
            [
                "journal-a.wal",
                "journal-b.wal",
                "slot-a.ckpt",
                "slot-b.ckpt"
            ]
        );
        for &report in &stamped[1..] {
            pipeline.send(report).expect("worker alive");
        }
        let report = pipeline.shutdown();
        assert!(report.metrics.resilience.checkpoints_taken >= 12);
        assert_eq!(lengths(), spawned);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
