//! The networked ingest front door: accept loop, connection handlers,
//! drain pump and degraded-mode watchdog.
//!
//! Thread shape (all owned by [`IngestServer`]):
//!
//! * **accept** — takes TCP connections, enforces the connection cap, and
//!   hands each to its own handler thread so one slow peer can never wedge
//!   the door (the defect the old inline metrics loop had).
//! * **handler** (one per connection, two halves) — the **reader half**
//!   does the handshake (`Hello`), then only reads: per-report
//!   classification through the [`SessionRegistry`], admission through the
//!   [`AdmissionQueue`], door sheds, and slowloris eviction (a frame that
//!   trickles past the frame deadline). Once the session is open it spawns
//!   the **writer half** on a `try_clone` of the socket and joins it on the
//!   way out. The writer owns the [`FrameWriter`]: it parks on the
//!   session's outbound state ([`SessionRegistry::wait_outbound`] — shed
//!   notes, snapshot, ack line past the last one written, hang-up), writes
//!   one cumulative `Ack` per wake after the sheds it covers, and evicts a
//!   peer whose write backlog stops draining. Nothing on the ack path
//!   waits for a timer: `io_tick` is only how often a blocked read comes
//!   up for the stop flag and the slowloris clock, and how often a stuck
//!   write is retried. A connection whose *first* frame is a replication
//!   subscribe (`CheckpointOffer`) or a fencing probe (`PromoteQuery`) is
//!   handed to the replication path instead of opening a session.
//! * **pump** — the only thread that feeds the engine: pops queued
//!   reports, sheds the ones that outlived the ingest deadline, and
//!   forwards the rest to the [`EngineSink`] exactly once. A forwarded
//!   report is *not* acked at hand-off: it stays in the pump's in-flight
//!   tail until the sink's [durable mark](EngineSink::durable_mark)
//!   covers it, so an ack can never run ahead of the engine's journal —
//!   the invariant restart-from-directory and standby promotion both lean
//!   on.
//!   The pump reads the mark on every pass, so while reports keep coming
//!   acks ride on arrivals; each time the engine has synced a commit group
//!   it fires the hook installed through [`EngineSink::set_durable_hook`]
//!   once, which [kicks](AdmissionQueue::kick) the pump out of its park to
//!   hand out the acks now covered.
//!   Engine backpressure is absorbed here (bounded retry against the
//!   deadline). Engine death, seen by a failing hand-off or by the idle
//!   [`EngineSink::dead`] probe, sheds the unacked tail with
//!   `EngineDegraded` and parks the server in sticky degraded mode: the
//!   supervisor's restart budget is the only in-process restart, and a
//!   dead engine comes back as a new process
//!   ([`SupervisedPipeline::recover_from_dir`] behind a fresh door) or
//!   through standby promotion.
//! * **watchdog** — refreshes the last-good top-k from the engine, trips
//!   degraded mode when the queue is backlogged and the pump makes no
//!   progress (or the engine died), clears it when the backlog drains,
//!   garbage-collects idle sessions, schedules snapshot pushes, and
//!   refreshes the `degraded_since_ms` gauge.
//!
//! Degraded mode is the graceful half of the overload story: ingest sheds
//! with [`ShedReason::EngineDegraded`] while the last-good snapshot keeps
//! being served to subscribers and `/healthz` reports `degraded: true`.
//!
//! **Replication.** A standby subscribes by sending an all-zero
//! `CheckpointOffer` as its first frame. The server registers the
//! subscription *before* reading the durable state (so no append can fall
//! between the journal it ships and the live tail it streams — overlap is
//! deduplicated by the standby's gate, a gap would be data loss), then
//! ships its newest checkpoint in [`MAX_CHUNK_DATA`]-sized chunks, the
//! journal tail, and finally every report the engine's durable mark
//! covers (journaled, or refused by its gate), each shipped before it is
//! acked and stamped with this server's fencing **epoch**. A report the
//! door sheds after the engine died never ships, so the stream is a
//! prefix of the journal that holds every acked report. A `PromoteQuery`
//! first frame is answered with the current epoch and the connection
//! closed — the liveness probe a promoting standby uses to guarantee it
//! never crowns itself while the primary is still answering.

use super::admission::{AdmissionConfig, AdmissionQueue, QueuedReport};
use super::session::{
    Link, OpenError, OutboundNote, ReportClass, SessionConfig, SessionOpen, SessionRegistry,
};
use super::stats::{NetStats, ShedReason};
use super::wire::{ByeReason, DecodeError, FrameDecoder, FrameWriter, Message, MAX_CHUNK_DATA};
use crate::durable::DurableState;
use crate::ingest::{StampedUpdate, TracedReport};
use crate::pipeline::SendError;
use crate::report::build_info;
use crate::server::MonitorEvent;
use crate::supervisor::{DurableHook, SupervisedPipeline};
use crate::types::{LocationUpdate, PlaceId, Safety, TopKEntry, UnitId};
use ctup_obs::json::ObjectWriter;
use ctup_obs::{mint_trace, now_nanos, sample_trace, SpanSink, Stage};
use ctup_spatial::{convert, Point};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why the engine refused a report right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkError {
    /// The engine's inbound queue is full; retrying shortly may succeed.
    Backpressure,
    /// The engine is gone (worker dead, restarts exhausted); no report
    /// will ever be accepted again on this sink.
    Dead,
}

/// The engine as the front door sees it: a place to put validated reports
/// and a current top-k to serve.
pub trait EngineSink: Send + Sync {
    /// Offers one report (with its causal trace context, trace 0 meaning
    /// untraced); must not block longer than a bounded push.
    fn try_ingest(&self, report: TracedReport) -> Result<(), SinkError>;
    /// The engine's current result, freshest first by unsafety.
    fn topk(&self) -> Vec<TopKEntry>;
    /// How many reports (counted in hand-off order from this sink's
    /// creation) the engine has taken durable ownership of — journaled or
    /// terminally rejected. The pump acks a report only once this mark
    /// covers its hand-off index, so every acked report survives an engine
    /// death in the journal that a restart from the directory replays.
    /// Sinks with no durability story (test counters, the calibrated
    /// overload sink) keep the default, which acks at hand-off.
    fn durable_mark(&self) -> u64 {
        u64::MAX
    }
    /// Whether the engine behind this sink has died. A pure probe for the
    /// pump's idle passes: an engine that dies *after* the admission queue
    /// drained would otherwise be discovered only by the next report's
    /// failing `try_ingest` — which may never come, leaving the unacked
    /// in-flight tail hanging. Sinks that cannot die keep the default.
    fn dead(&self) -> bool {
        false
    }
    /// Installs the hook the engine calls when its
    /// [durable mark](EngineSink::durable_mark) moves — once per journaled
    /// commit group, not per report — the front door's cue to ack without
    /// waiting for the next arrival. Sinks whose mark covers a report the
    /// moment it is handed over have nothing to announce and keep the
    /// default.
    fn set_durable_hook(&self, _hook: DurableHook) {}
}

/// [`EngineSink`] over the supervised pipeline: reports ride the existing
/// validated ingest gate and liveness leases inside the supervisor, and
/// the top-k is maintained incrementally from the pipeline's
/// [`MonitorEvent`] stream (seeded with the result at spawn time).
pub struct PipelineSink {
    pipeline: SupervisedPipeline,
    current: Mutex<HashMap<PlaceId, Safety>>,
}

impl std::fmt::Debug for PipelineSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineSink").finish_non_exhaustive()
    }
}

impl PipelineSink {
    /// Wraps a running pipeline. `initial` is the algorithm's result at
    /// spawn time (events only carry changes, not the starting state).
    pub fn new(pipeline: SupervisedPipeline, initial: Vec<TopKEntry>) -> Self {
        PipelineSink {
            pipeline,
            current: Mutex::new(initial.iter().map(|e| (e.place, e.safety)).collect()),
        }
    }

    /// Wraps a running pipeline, seeded with the result its worker
    /// started from ([`SupervisedPipeline::initial_result`]) — for a
    /// recovered pipeline that is the result *after* the journal replay,
    /// which a checkpoint preview would miss.
    pub fn from_pipeline(pipeline: SupervisedPipeline) -> Self {
        let initial = pipeline.initial_result().to_vec();
        PipelineSink::new(pipeline, initial)
    }

    /// Unwraps the pipeline (for shutdown and final accounting).
    pub fn into_pipeline(self) -> SupervisedPipeline {
        self.pipeline
    }

    fn apply_events(&self) {
        let mut current = match self.current.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        for batch in self.pipeline.events().try_iter() {
            for event in batch.events {
                match event {
                    MonitorEvent::Entered { place, safety } => {
                        current.insert(place, safety);
                    }
                    MonitorEvent::Left { place } => {
                        current.remove(&place);
                    }
                    MonitorEvent::SafetyChanged { place, new, .. } => {
                        current.insert(place, new);
                    }
                }
            }
        }
    }
}

impl EngineSink for PipelineSink {
    fn try_ingest(&self, report: TracedReport) -> Result<(), SinkError> {
        match self.pipeline.try_send_traced(report) {
            Ok(()) => Ok(()),
            Err(SendError::Full) => Err(SinkError::Backpressure),
            Err(SendError::WorkerDied) => Err(SinkError::Dead),
        }
    }

    fn topk(&self) -> Vec<TopKEntry> {
        self.apply_events();
        let current = match self.current.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut entries: Vec<TopKEntry> = current
            .iter()
            .map(|(&place, &safety)| TopKEntry { place, safety })
            .collect();
        entries.sort_by_key(|e| (e.safety, e.place));
        entries
    }

    fn durable_mark(&self) -> u64 {
        self.pipeline.durable_mark()
    }

    fn dead(&self) -> bool {
        self.pipeline.worker_dead()
    }

    fn set_durable_hook(&self, hook: DurableHook) {
        self.pipeline.set_durable_hook(hook);
    }
}

/// Channel capacity of the supervised pipeline behind a served front
/// door: `ctup serve`'s primary and a promoted standby both run with it.
pub const PIPELINE_CAPACITY: usize = 4096;

/// Full configuration of the front door.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Admission queue sizing and deadlines.
    pub admission: AdmissionConfig,
    /// Session registry sizing and retention.
    pub session: SessionConfig,
    /// Cap on concurrent connections; beyond it new ones get
    /// `Bye(ServerFull)` and are counted as rejected.
    pub max_connections: usize,
    /// Socket read/write timeout: how often a blocked reader half comes
    /// up for the stop flag and the slowloris clock, how often a stuck
    /// write is retried, and the pump's idle stop-check cadence. No reply
    /// waits for it.
    pub io_tick: Duration,
    /// A connection must complete its `Hello` within this.
    pub handshake_deadline: Duration,
    /// A started frame must complete within this (slowloris eviction).
    pub frame_deadline: Duration,
    /// A write backlog must drain within this (slow-reader eviction).
    pub write_deadline: Duration,
    /// Hard cap in bytes on a connection's outbound backlog.
    pub max_write_backlog: usize,
    /// Cadence of server-pushed snapshots; zero disables pushing.
    pub snapshot_push_interval: Duration,
    /// Watchdog cadence (degraded-mode checks, session GC).
    pub watchdog_tick: Duration,
    /// The fencing epoch this server serves at. Every replication frame
    /// carries it; a promoted standby serves at its old primary's epoch
    /// plus one, which is what lets everyone reject the stale side of a
    /// partition. Fresh primaries start at 1.
    pub epoch: u64,
    /// Durable state directory (A/B slots + journal) this server ships
    /// checkpoints from; `None` refuses replication subscribes. Must be
    /// the directory the engine's supervisor checkpoints into.
    pub state_dir: Option<PathBuf>,
    /// Causal span sink the front door records into (session-admit,
    /// queue-wait and shed spans, plus server-side trace minting). Share
    /// the same sink with the engine supervisor
    /// ([`crate::supervisor::ResilienceConfig::spans`]) so one trace's
    /// spans land in one dump. `None` disables all span recording here.
    pub spans: Option<Arc<SpanSink>>,
    /// Head-based 1-in-N sampling rate for reports that arrive *untraced*
    /// (v1 clients): 0 never mints, 1 traces every report. Reports that
    /// already carry a client-minted trace id are always recorded, and
    /// sheds are always traced regardless of this rate.
    pub trace_sample_every: u64,
    /// Seed mixed (with the session id) into server-minted trace ids.
    pub trace_seed: u64,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            admission: AdmissionConfig::default(),
            session: SessionConfig::default(),
            max_connections: 256,
            io_tick: Duration::from_millis(25),
            handshake_deadline: Duration::from_secs(2),
            frame_deadline: Duration::from_secs(2),
            write_deadline: Duration::from_secs(2),
            max_write_backlog: 256 * 1024,
            snapshot_push_interval: Duration::from_millis(250),
            watchdog_tick: Duration::from_millis(25),
            epoch: 1,
            state_dir: None,
            spans: None,
            trace_sample_every: 0,
            trace_seed: 0,
        }
    }
}

/// Cap on WAL frames queued for one replication subscriber; a standby
/// that falls further behind than this is cut off (`Bye(Evicted)`) and
/// must re-sync from a fresh checkpoint by reconnecting.
const REPLICATION_OUTBOX_CAP: usize = 8192;

/// One replication subscriber's bounded outbox.
#[derive(Debug)]
struct SubOutbox {
    queue: Mutex<VecDeque<Message>>,
    overflowed: AtomicBool,
}

/// Fan-out of live WAL appends to subscribed standbys. The pump ships
/// every report the engine's durable mark covers, right before its ack;
/// the handler thread serving each replication connection drains its
/// subscriber's outbox onto the wire.
#[derive(Debug, Default)]
struct ReplicationHub {
    subs: Mutex<Vec<Arc<SubOutbox>>>,
}

impl ReplicationHub {
    fn lock_subs(&self) -> std::sync::MutexGuard<'_, Vec<Arc<SubOutbox>>> {
        match self.subs.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn subscribe(&self) -> Arc<SubOutbox> {
        let sub = Arc::new(SubOutbox {
            queue: Mutex::new(VecDeque::new()),
            overflowed: AtomicBool::new(false),
        });
        self.lock_subs().push(Arc::clone(&sub));
        sub
    }

    fn unsubscribe(&self, sub: &Arc<SubOutbox>) {
        self.lock_subs().retain(|s| !Arc::ptr_eq(s, sub));
    }

    fn ship(&self, msg: &Message) {
        let subs = self.lock_subs();
        for sub in subs.iter() {
            // Relaxed: one-way overflow latch; the serving thread re-reads it every tick
            if sub.overflowed.load(Ordering::Relaxed) {
                continue;
            }
            let mut queue = match sub.queue.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            if queue.len() >= REPLICATION_OUTBOX_CAP {
                // Relaxed: one-way overflow latch; ordering against the clear is irrelevant, the sub is cut off either way
                sub.overflowed.store(true, Ordering::Relaxed);
                queue.clear();
            } else {
                queue.push_back(msg.clone());
            }
        }
    }
}

/// State shared by every server thread.
struct Shared {
    config: NetServerConfig,
    stats: Arc<NetStats>,
    registry: SessionRegistry,
    /// Shared so the engine's durable hook can hold a `Weak` to the queue
    /// alone: the sink outlives the server, and upgrading must never make
    /// an engine thread the last owner of anything that owns the sink.
    queue: Arc<AdmissionQueue>,
    /// The engine, fixed for this server's lifetime.
    sink: Arc<dyn EngineSink>,
    replication: ReplicationHub,
    /// The fencing epoch, fixed for this server's lifetime.
    epoch: u64,
    stop: AtomicBool,
    degraded: AtomicBool,
    engine_dead: AtomicBool,
    /// Monotone count of pump completions (acks + pump sheds); the
    /// watchdog watches it to distinguish "busy" from "stalled".
    progress: AtomicU64,
    last_good: Mutex<Vec<TopKEntry>>,
    /// When the current degraded episode began (`None` while healthy).
    degraded_entered: Mutex<Option<Instant>>,
    conn_count: AtomicUsize,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            // Relaxed: diagnostic snapshot; a stale value only mislabels a debug dump
            .field("degraded", &self.degraded.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Shared {
    /// The hook a sink gets: kick the pump out of its park.
    fn durable_hook(&self) -> DurableHook {
        let queue = Arc::downgrade(&self.queue);
        Arc::new(move || {
            if let Some(queue) = queue.upgrade() {
                queue.kick();
            }
        })
    }

    fn set_degraded(&self, on: bool) {
        // Relaxed: degraded gates best-effort shedding only; no data is published through it
        let was = self.degraded.swap(on, Ordering::Relaxed);
        self.stats.degraded.store(on, Ordering::Relaxed);
        if on && !was {
            self.stats.degraded_entries.fetch_add(1, Ordering::Relaxed);
            let mut entered = match self.degraded_entered.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            *entered = Some(Instant::now());
        } else if !on && was {
            let mut entered = match self.degraded_entered.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            *entered = None;
            self.stats.degraded_since_ms.store(0, Ordering::Relaxed);
        }
    }

    /// Milliseconds into the current degraded episode, 0 while healthy.
    fn degraded_for_ms(&self) -> u64 {
        let entered = match self.degraded_entered.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        entered.map_or(0, |t| {
            u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX)
        })
    }
}

/// A running ingest front door. Dropping it (or calling
/// [`IngestServer::shutdown`]) stops and joins every server thread.
#[derive(Debug)]
pub struct IngestServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl IngestServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving `sink`. Engine
    /// death is sticky degraded mode.
    pub fn spawn(
        addr: &str,
        config: NetServerConfig,
        sink: Arc<dyn EngineSink>,
    ) -> std::io::Result<IngestServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(NetStats::default());
        stats.epoch.store(config.epoch, Ordering::Relaxed);
        let initial_topk = sink.topk();
        let shared = Arc::new(Shared {
            registry: SessionRegistry::new(config.session.clone(), Arc::clone(&stats)),
            queue: Arc::new(AdmissionQueue::new(
                config.admission.clone(),
                Arc::clone(&stats),
            )),
            epoch: config.epoch,
            config,
            stats,
            sink,
            replication: ReplicationHub::default(),
            stop: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            engine_dead: AtomicBool::new(false),
            progress: AtomicU64::new(0),
            last_good: Mutex::new(initial_topk),
            degraded_entered: Mutex::new(None),
            conn_count: AtomicUsize::new(0),
        });
        shared.sink.set_durable_hook(shared.durable_hook());
        let accept = spawn_thread("ctup-net-accept", {
            let shared = Arc::clone(&shared);
            move || accept_loop(&listener, &shared)
        })?;
        let pump = spawn_thread("ctup-net-pump", {
            let shared = Arc::clone(&shared);
            move || pump_loop(&shared)
        })?;
        let watchdog = spawn_thread("ctup-net-watchdog", {
            let shared = Arc::clone(&shared);
            move || watchdog_loop(&shared)
        })?;
        Ok(IngestServer {
            addr,
            shared,
            accept: Some(accept),
            pump: Some(pump),
            watchdog: Some(watchdog),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live counters, shared with every server thread.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Whether the watchdog currently has the server degraded.
    pub fn degraded(&self) -> bool {
        // Relaxed: observer peek at a best-effort flag; callers tolerate one-tick staleness
        self.shared.degraded.load(Ordering::Relaxed)
    }

    /// The fencing epoch this server serves at.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// The last-good top-k (served even while degraded).
    pub fn last_good_topk(&self) -> Vec<TopKEntry> {
        match self.shared.last_good.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// The `/healthz` body: liveness plus the degraded flag, the load
    /// gauges and the recovery counters, as one flat JSON object.
    pub fn health_body(&self) -> String {
        let degraded = self.degraded();
        let stats = &self.shared.stats;
        let mut obj = ObjectWriter::new();
        obj.field_str("status", if degraded { "degraded" } else { "ok" });
        obj.field_bool("degraded", degraded);
        obj.field_u64("sessions", convert::count64(self.shared.registry.active()));
        obj.field_u64("queue_depth", convert::count64(self.shared.queue.depth()));
        obj.field_u64("failovers", stats.failovers.load(Ordering::Relaxed));
        obj.field_u64("degraded_since_ms", self.shared.degraded_for_ms());
        obj.field_u64("epoch", self.shared.epoch);
        obj.field_str("build", &build_info());
        obj.finish()
    }

    /// Stops accepting, drains the admission queue through the pump, joins
    /// every thread and returns the final counters.
    pub fn shutdown(mut self) -> super::stats::NetStatsSnapshot {
        self.stop_threads();
        // Final mirror of the span-sink counters: the watchdog may not
        // have ticked since the last traced report, and the shutdown
        // snapshot must account for every sampled trace.
        if let Some(sink) = self.shared.config.spans.as_deref() {
            self.shared
                .stats
                .spans_dropped
                .store(sink.dropped(), Ordering::Relaxed);
            self.shared
                .stats
                .traces_sampled
                .store(sink.sampled(), Ordering::Relaxed);
        }
        self.shared.stats.snapshot()
    }

    fn stop_threads(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Reader halves poll the stop flag at io_tick granularity; wait for
        // them (bounded) so their final acks and Byes get written.
        let deadline =
            Instant::now() + self.shared.config.io_tick * 40 + Duration::from_millis(200);
        while self.shared.conn_count.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // The pump may be parked with nothing to pop; send it round to
        // see the stop flag.
        self.shared.queue.kick();
        if let Some(handle) = self.pump.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn spawn_thread<F>(name: &str, f: F) -> std::io::Result<JoinHandle<()>>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new().name(name.into()).spawn(f)
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let active = shared.conn_count.load(Ordering::SeqCst);
        if active >= shared.config.max_connections {
            shared
                .stats
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
            refuse(stream, ByeReason::ServerFull);
            continue;
        }
        shared.conn_count.fetch_add(1, Ordering::SeqCst);
        shared
            .stats
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        let for_handler = Arc::clone(shared);
        let spawned = spawn_thread("ctup-net-conn", move || {
            handle_connection(stream, &for_handler);
            for_handler.conn_count.fetch_sub(1, Ordering::SeqCst);
        });
        if spawned.is_err() {
            // Could not spawn a handler; undo the slot reservation.
            shared.conn_count.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Best-effort `Bye` on a connection we will not serve.
fn refuse(mut stream: TcpStream, reason: ByeReason) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut bytes = Vec::new();
    Message::Bye { reason }.encode(&mut bytes);
    let _ = stream.write_all(&bytes);
}

/// One connection: the handshake, then the reader half on this thread and
/// the writer half on its own, joined before the connection slot is
/// given back.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let tick = shared.config.io_tick;
    if stream.set_read_timeout(Some(tick)).is_err() || stream.set_write_timeout(Some(tick)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut decoder = FrameDecoder::new();
    let mut writer = FrameWriter::new();

    // Handshake: the first frame picks the connection's role — a Hello
    // opens a feed session, an all-zero CheckpointOffer subscribes a
    // standby, a PromoteQuery probes the fencing epoch. Anything else
    // within the deadline is a violation.
    let handshake_deadline = Instant::now() + shared.config.handshake_deadline;
    let open = loop {
        if shared.stop.load(Ordering::SeqCst) {
            send_bye(&mut stream, &mut writer, ByeReason::Shutdown);
            return;
        }
        if Instant::now() > handshake_deadline {
            shared
                .stats
                .sessions_evicted
                .fetch_add(1, Ordering::Relaxed);
            send_bye(&mut stream, &mut writer, ByeReason::Evicted);
            return;
        }
        match decoder.read_from(&mut stream) {
            Ok(Message::Hello { resume_session }) => {
                shared.stats.frames_received.fetch_add(1, Ordering::Relaxed);
                match shared.registry.open(resume_session, Instant::now()) {
                    Ok(open) => break open,
                    Err(OpenError::ServerFull) => {
                        shared
                            .stats
                            .connections_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        send_bye(&mut stream, &mut writer, ByeReason::ServerFull);
                        return;
                    }
                }
            }
            Ok(Message::CheckpointOffer { .. }) => {
                shared.stats.frames_received.fetch_add(1, Ordering::Relaxed);
                serve_replication(stream, decoder, writer, shared);
                return;
            }
            Ok(Message::PromoteQuery { .. }) => {
                shared.stats.frames_received.fetch_add(1, Ordering::Relaxed);
                // Fencing probe: answer with our epoch and hang up. A
                // promoting standby that hears this knows the primary is
                // alive and aborts the promotion.
                writer.push(&Message::PromoteQuery {
                    epoch: shared.epoch,
                });
                let _ = writer.flush_into(&mut stream);
                return;
            }
            Ok(_) => {
                shared.stats.frames_received.fetch_add(1, Ordering::Relaxed);
                shared
                    .stats
                    .sessions_evicted
                    .fetch_add(1, Ordering::Relaxed);
                send_bye(&mut stream, &mut writer, ByeReason::ProtocolError);
                return;
            }
            Err(e) if e.is_timeout() => continue,
            Err(DecodeError::Wire(_)) => {
                shared
                    .stats
                    .frames_malformed
                    .fetch_add(1, Ordering::Relaxed);
                send_bye(&mut stream, &mut writer, ByeReason::ProtocolError);
                return;
            }
            Err(DecodeError::Closed { mid_frame }) => {
                if mid_frame {
                    shared
                        .stats
                        .partial_disconnects
                        .fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            Err(DecodeError::Io(_)) => return,
        }
    };

    // The session is open: everything outbound is the writer half's from
    // here, starting with the handshake ack.
    writer.push(&Message::Ack {
        session: open.session,
        handled_up_to: open.handled_up_to,
    });
    let writer_half = stream.try_clone().and_then(|out| {
        let shared = Arc::clone(shared);
        spawn_thread("ctup-net-conn-w", move || {
            write_half(out, writer, &shared, open);
        })
    });
    let Ok(writer_half) = writer_half else {
        shared.registry.hang_up(open.session, open.epoch, None);
        return;
    };
    let bye = read_half(&mut stream, &mut decoder, shared, open);
    shared.registry.hang_up(open.session, open.epoch, bye);
    let _ = writer_half.join();
}

/// The reader half: reads frames until the connection is over and says
/// how — `Some(reason)` is the goodbye the writer half still owes the
/// peer, `None` means the peer is gone (or a reconnect took the session
/// over) and there is nobody to say it to.
fn read_half(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    shared: &Arc<Shared>,
    open: SessionOpen,
) -> Option<ByeReason> {
    // When the frame now trickling in was first seen incomplete.
    let mut frame_started: Option<Instant> = None;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return Some(ByeReason::Shutdown);
        }
        if !shared.registry.epoch_current(open.session, open.epoch) {
            // A reconnect took the session over; retire quietly.
            return None;
        }
        match decoder.read_from(stream) {
            Ok(msg) => {
                shared.stats.frames_received.fetch_add(1, Ordering::Relaxed);
                frame_started = None;
                match msg {
                    Message::Report {
                        seq,
                        unit_seq,
                        ts,
                        unit,
                        x,
                        y,
                        trace,
                    } => handle_report(shared, open.session, seq, unit_seq, ts, unit, x, y, trace),
                    Message::Bye { .. } => return None,
                    // Hello mid-stream, a server-only frame from a
                    // client, or a replication frame on a feed session:
                    // protocol violation.
                    Message::Hello { .. }
                    | Message::Ack { .. }
                    | Message::Shed { .. }
                    | Message::SnapshotPush { .. }
                    | Message::CheckpointOffer { .. }
                    | Message::CheckpointChunk { .. }
                    | Message::WalAppend { .. }
                    | Message::PromoteQuery { .. } => {
                        shared
                            .stats
                            .sessions_evicted
                            .fetch_add(1, Ordering::Relaxed);
                        return Some(ByeReason::ProtocolError);
                    }
                }
            }
            Err(e) if e.is_timeout() => {
                // Slowloris: a frame that started but will not finish.
                if decoder.mid_frame() {
                    let started = *frame_started.get_or_insert_with(Instant::now);
                    if started.elapsed() > shared.config.frame_deadline {
                        shared
                            .stats
                            .sessions_evicted
                            .fetch_add(1, Ordering::Relaxed);
                        return Some(ByeReason::Evicted);
                    }
                } else {
                    frame_started = None;
                }
            }
            Err(DecodeError::Wire(_)) => {
                shared
                    .stats
                    .frames_malformed
                    .fetch_add(1, Ordering::Relaxed);
                return Some(ByeReason::ProtocolError);
            }
            Err(DecodeError::Closed { mid_frame }) => {
                if mid_frame {
                    shared
                        .stats
                        .partial_disconnects
                        .fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
            Err(DecodeError::Io(_)) => return None,
        }
    }
}

/// The writer half: owns the [`FrameWriter`] and this connection's end of
/// the session's outbound state. Each pass flushes, then parks in
/// [`SessionRegistry::wait_outbound`] until the session has something to
/// say; what comes back is one consistent cut — shed notes first, then
/// one cumulative `Ack` — so a `Shed` always precedes the ack covering
/// its seq. A peer that stops reading is evicted here: the socket is shut
/// down under the reader half, which then hangs up and joins us.
fn write_half(
    mut stream: TcpStream,
    mut writer: FrameWriter,
    shared: &Arc<Shared>,
    open: SessionOpen,
) {
    let mut last_acked = open.handled_up_to;
    let mut stuck_since: Option<Instant> = None;
    loop {
        if !flush_backlog(&mut writer, &mut stream, &mut stuck_since, shared) {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        // With a backlog the peer would not take, come back within a
        // tick to retry the write; with none, sleep until spoken to.
        let patience = (writer.pending() > 0).then_some(shared.config.io_tick);
        let outbound =
            shared
                .registry
                .wait_outbound(open.session, open.epoch, last_acked, patience);
        for note in outbound.notes {
            match note {
                OutboundNote::Shed { seq, reason } => writer.push(&Message::Shed { seq, reason }),
                OutboundNote::Snapshot { degraded, entries } => {
                    shared
                        .stats
                        .snapshots_pushed
                        .fetch_add(1, Ordering::Relaxed);
                    writer.push(&Message::SnapshotPush { degraded, entries });
                }
            }
        }
        if outbound.handled_up_to > last_acked {
            last_acked = outbound.handled_up_to;
            writer.push(&Message::Ack {
                session: open.session,
                handled_up_to: last_acked,
            });
        }
        match outbound.link {
            Link::Open => {}
            Link::Closed(bye) => {
                if let Some(reason) = bye {
                    writer.push(&Message::Bye { reason });
                }
                let _ = writer.flush_into(&mut stream);
                return;
            }
            Link::Retired => {
                // Unblocks a reader half still sitting in a read.
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        }
    }
}

/// Serves one replication subscriber: ships the newest durable checkpoint
/// in chunks, then the journal tail, then streams live WAL appends from
/// the pump until the peer leaves, falls too far behind, or we shut down.
fn serve_replication(
    mut stream: TcpStream,
    mut decoder: FrameDecoder,
    mut writer: FrameWriter,
    shared: &Arc<Shared>,
) {
    let Some(dir) = shared.config.state_dir.clone() else {
        // No durable state to ship; refuse the subscribe.
        send_bye(&mut stream, &mut writer, ByeReason::ProtocolError);
        return;
    };
    // Subscribe BEFORE reading the durable state: an append that lands in
    // between is delivered twice (journal read + live tail) and the
    // standby's gate deduplicates it; the reverse order would drop it.
    let sub = shared.replication.subscribe();
    let epoch = shared.epoch;
    let Ok((checkpoint, journal)) = DurableState::load(&dir) else {
        shared.replication.unsubscribe(&sub);
        send_bye(&mut stream, &mut writer, ByeReason::Shutdown);
        return;
    };
    let mut body = Vec::new();
    if checkpoint.write(&mut body).is_err() {
        shared.replication.unsubscribe(&sub);
        send_bye(&mut stream, &mut writer, ByeReason::Shutdown);
        return;
    }
    writer.push(&Message::CheckpointOffer {
        epoch,
        slot_seq: 0,
        total_len: convert::count64(body.len()),
    });
    let mut offset = 0usize;
    while offset < body.len() {
        let end = (offset + MAX_CHUNK_DATA).min(body.len());
        writer.push(&Message::CheckpointChunk {
            epoch,
            offset: convert::count64(offset),
            data: body[offset..end].to_vec(),
        });
        offset = end;
    }
    for report in journal {
        writer.push(&Message::WalAppend {
            epoch,
            unit_seq: report.seq,
            ts: report.ts,
            unit: report.update.unit.0,
            x: report.update.new.x,
            y: report.update.new.y,
            // The durable journal does not persist trace ids; only the
            // live tail shipped by the pump carries them.
            trace: 0,
        });
    }
    let mut write_stuck: Option<Instant> = None;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            send_bye(&mut stream, &mut writer, ByeReason::Shutdown);
            break;
        }
        // Relaxed: one-way overflow latch; a stale false costs one extra drain pass
        if sub.overflowed.load(Ordering::Relaxed) {
            shared
                .stats
                .sessions_evicted
                .fetch_add(1, Ordering::Relaxed);
            send_bye(&mut stream, &mut writer, ByeReason::Evicted);
            break;
        }
        // Drain the outbox into a local batch first: no socket write
        // happens while the outbox lock is held.
        let batch: Vec<Message> = {
            let mut queue = match sub.queue.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            queue.drain(..).collect()
        };
        for msg in &batch {
            writer.push(msg);
        }
        if !flush_backlog(&mut writer, &mut stream, &mut write_stuck, shared) {
            break;
        }
        match decoder.read_from(&mut stream) {
            Ok(Message::Bye { .. }) => break,
            Ok(_) => {
                // A subscriber has nothing else to say on this wire.
                shared
                    .stats
                    .frames_malformed
                    .fetch_add(1, Ordering::Relaxed);
                send_bye(&mut stream, &mut writer, ByeReason::ProtocolError);
                break;
            }
            Err(e) if e.is_timeout() => {}
            Err(_) => break,
        }
    }
    shared.replication.unsubscribe(&sub);
}

/// Classifies and admits (or sheds) one report. `wire_trace` is the
/// trace id the client stamped on the frame (0 for v1 clients and
/// unsampled reports); an untraced fresh report may still be head-sampled
/// here at the server's own rate.
#[expect(
    clippy::too_many_arguments,
    reason = "the per-report context of one connection, passed by reference on the hot path"
)]
fn handle_report(
    shared: &Arc<Shared>,
    session: u64,
    seq: u64,
    unit_seq: u64,
    ts: u64,
    unit: u32,
    x: f64,
    y: f64,
    wire_trace: u64,
) {
    let spans = shared.config.spans.as_deref();
    let admit_start = now_nanos();
    match shared.registry.classify(session, seq) {
        ReportClass::Replay => {
            // Replays never re-enter the pipeline, so they record no
            // spans either: a retransmit maps onto the spans its first
            // delivery already produced (span ids are deterministic).
            shared
                .stats
                .replays_suppressed
                .fetch_add(1, Ordering::Relaxed);
        }
        ReportClass::QuotaExceeded => {
            shed_at_door(
                shared,
                session,
                seq,
                ShedReason::SessionQuota,
                wire_trace,
                admit_start,
            );
        }
        ReportClass::Fresh => {
            // Relaxed: best-effort shed gate; a stale read admits or sheds one extra report
            if shared.degraded.load(Ordering::Relaxed) {
                shed_at_door(
                    shared,
                    session,
                    seq,
                    ShedReason::EngineDegraded,
                    wire_trace,
                    admit_start,
                );
                return;
            }
            // Server-side head sampling for untraced reports. The
            // decision and the minted id are pure functions of the seq,
            // so a reconnect retransmit that raced the dedup line would
            // land on the same trace rather than forking a new one.
            let mut trace = wire_trace;
            if trace == 0 {
                if let Some(sink) = spans {
                    trace = sample_trace(
                        shared.config.trace_seed ^ session,
                        seq,
                        shared.config.trace_sample_every,
                    );
                    if trace != 0 {
                        sink.note_trace_sampled();
                    }
                }
            }
            let report = StampedUpdate {
                seq: unit_seq,
                ts,
                update: LocationUpdate {
                    unit: UnitId(unit),
                    new: Point::new(x, y),
                },
            };
            let enqueued_nanos = if trace != 0 { now_nanos() } else { 0 };
            let queued = QueuedReport {
                session,
                seq,
                report,
                enqueued_at: Instant::now(),
                trace,
                enqueued_nanos,
            };
            // The seq must be in the session's pending run BEFORE the
            // queue can hand the item to the pump: a fast engine drains
            // the instant it lands, and `drained()` finding nothing to
            // remove would leave a ghost entry pinning the ack line.
            shared.registry.note_enqueued(session, seq);
            match shared.queue.try_enqueue(queued) {
                Ok(()) => {
                    if trace != 0 {
                        if let Some(sink) = spans {
                            // Ends at the enqueue stamp so the queue-wait
                            // span starts exactly where this one stops.
                            sink.record_stage(
                                trace,
                                Stage::SessionAdmit,
                                0,
                                admit_start,
                                enqueued_nanos,
                                wire_trace != 0,
                            );
                        }
                    }
                }
                // Refused: the shed rolls the pending entry back and queues
                // the note in one step, so the ack line never covers this
                // seq before the writer half holds its `Shed`.
                Err(reason) => shed_at_door(shared, session, seq, reason, wire_trace, admit_start),
            }
        }
    }
}

fn shed_at_door(
    shared: &Arc<Shared>,
    session: u64,
    seq: u64,
    reason: ShedReason,
    wire_trace: u64,
    admit_start: u64,
) {
    shared.registry.shed(session, seq, reason);
    shared.stats.record_shed(reason);
    // Door sheds are always traced — overload episodes are exactly when
    // an operator needs exemplar traces — so an untraced report gets a
    // trace minted here (deterministically, same id a sampled admit of
    // this seq would have gotten).
    if let Some(sink) = shared.config.spans.as_deref() {
        let trace = if wire_trace != 0 {
            wire_trace
        } else {
            sink.note_trace_sampled();
            mint_trace(shared.config.trace_seed ^ session, seq)
        };
        let now = now_nanos();
        sink.record_stage(
            trace,
            Stage::SessionAdmit,
            0,
            admit_start,
            now,
            wire_trace != 0,
        );
        sink.record_stage(trace, Stage::Shed, u32::from(reason.code()), now, now, true);
    }
}

/// Writes as much of `writer`'s backlog as the peer takes. `false` means
/// the connection is over: a hard write error, or a peer that stopped
/// reading — its backlog has not drained for `write_deadline` (clocked
/// from `stuck_since`) or outgrew `max_write_backlog` — which is counted
/// as an eviction.
fn flush_backlog(
    writer: &mut FrameWriter,
    stream: &mut TcpStream,
    stuck_since: &mut Option<Instant>,
    shared: &Shared,
) -> bool {
    if writer.pending() == 0 {
        return true;
    }
    match writer.flush_into(stream) {
        Ok(true) => *stuck_since = None,
        Ok(false) => {
            let stuck = *stuck_since.get_or_insert_with(Instant::now);
            if stuck.elapsed() > shared.config.write_deadline
                || writer.pending() > shared.config.max_write_backlog
            {
                shared
                    .stats
                    .sessions_evicted
                    .fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        Err(_) => return false,
    }
    true
}

fn send_bye(stream: &mut TcpStream, writer: &mut FrameWriter, reason: ByeReason) {
    writer.push(&Message::Bye { reason });
    let _ = writer.flush_into(stream);
}

/// The single engine feeder: drains the admission queue in arrival order.
///
/// Ack discipline: a report handed to the sink joins the in-flight tail
/// and is acked (drained in the registry, counted accepted) only once the
/// sink's durable mark covers its hand-off index. On engine death the
/// tail is exactly the set of reports that may not have reached the
/// journal — [`engine_died`] sheds it, so no ack is ever retracted, and a
/// restart from the directory replays whatever the journal did cover.
fn pump_loop(shared: &Arc<Shared>) {
    let tick = shared.config.io_tick;
    let deadline = shared.config.admission.ingest_deadline;
    // Reports handed to the sink, in order; index 1 is the first.
    let mut handed: u64 = 0;
    let mut inflight: VecDeque<(u64, QueuedReport)> = VecDeque::new();
    loop {
        drain_acks(shared, &mut inflight);
        // Parks until a report arrives, the engine kicks (it synced a
        // commit group and moved the durable mark: the pass above has acks
        // to hand out), or a tick passes (stop flag, liveness probe).
        let Some(item) = shared.queue.pop(tick) else {
            if shared.stop.load(Ordering::SeqCst) {
                finish_inflight(shared, &mut inflight);
                return;
            }
            // Idle liveness probe: with the queue drained, a dead engine
            // would never be discovered through a failing hand-off, so an
            // unacked tail would hang forever — and with everything acked
            // (a kill right after the last report's journal write), the
            // door would keep claiming health over a top-k that misses
            // those reports.
            // Relaxed: one-way latch; a stale false costs one extra probe pass
            if !shared.engine_dead.load(Ordering::Relaxed) && shared.sink.dead() {
                engine_died(shared, &mut inflight);
            }
            continue;
        };
        let wait = item.enqueued_at.elapsed();
        if wait > deadline {
            pump_shed(shared, &item, ShedReason::DeadlineExceeded);
            continue;
        }
        // Relaxed: one-way latch; a stale false costs one extra try_ingest which re-reports Dead
        if shared.engine_dead.load(Ordering::Relaxed) {
            pump_shed(shared, &item, ShedReason::EngineDegraded);
            continue;
        }
        // Bounded retry against engine backpressure: the admission queue
        // is the elastic buffer, so all we do here is wait out short
        // bursts — the ingest deadline still bounds the total wait.
        loop {
            let handed_nanos = if item.trace != 0 { now_nanos() } else { 0 };
            match shared.sink.try_ingest(TracedReport {
                report: item.report,
                trace: item.trace,
                handed_nanos,
            }) {
                Ok(()) => {
                    handed += 1;
                    if item.trace != 0 {
                        if let Some(spans) = shared.config.spans.as_deref() {
                            // Queue wait: admission-queue entry to this
                            // successful hand-off (the engine-apply span
                            // picks up at `handed_nanos`).
                            let q0 = if item.enqueued_nanos != 0 {
                                item.enqueued_nanos
                            } else {
                                handed_nanos
                            };
                            spans.record_stage(
                                item.trace,
                                Stage::QueueWait,
                                0,
                                q0,
                                handed_nanos,
                                true,
                            );
                        }
                    }
                    inflight.push_back((handed, item));
                    break;
                }
                Err(SinkError::Backpressure) => {
                    if item.enqueued_at.elapsed() > deadline {
                        pump_shed(shared, &item, ShedReason::DeadlineExceeded);
                        break;
                    }
                    drain_acks(shared, &mut inflight);
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(SinkError::Dead) => {
                    engine_died(shared, &mut inflight);
                    pump_shed(shared, &item, ShedReason::EngineDegraded);
                    break;
                }
            }
        }
    }
}

/// Ships to the standbys, then acks, every in-flight report the sink's
/// durable mark now covers.
fn drain_acks(shared: &Arc<Shared>, inflight: &mut VecDeque<(u64, QueuedReport)>) {
    if inflight.is_empty() {
        return;
    }
    let mark = shared.sink.durable_mark();
    while inflight.front().is_some_and(|&(idx, _)| idx <= mark) {
        if let Some((_, item)) = inflight.pop_front() {
            // Journal, ship, ack: the report ships once the mark covers
            // it and before its ack, so a standby's stream is a prefix of
            // the journal holding every acked report and no shed one.
            shared.replication.ship(&Message::WalAppend {
                epoch: shared.epoch,
                unit_seq: item.report.seq,
                ts: item.report.ts,
                unit: item.report.update.unit.0,
                x: item.report.update.new.x,
                y: item.report.update.new.y,
                trace: item.trace,
            });
            shared
                .stats
                .reports_accepted
                .fetch_add(1, Ordering::Relaxed);
            let wait = convert::nanos64(item.enqueued_at.elapsed().as_nanos());
            shared.stats.ingest_wait_nanos.record(wait);
            shared.stats.record_exemplar(wait, item.trace);
            shared.registry.drained(item.session, item.seq);
            // Relaxed: monotone liveness counter; the watchdog only compares snapshots
            shared.progress.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Called with the engine dead: latches it, degrades the door for good,
/// ships and acks what the final durable mark covers, and sheds the rest
/// of the tail with `EngineDegraded`. A dead engine's mark has stopped, so
/// acked is then exactly what the journal holds.
fn engine_died(shared: &Arc<Shared>, inflight: &mut VecDeque<(u64, QueuedReport)>) {
    // Relaxed: one-way latch; readers act on it eventually, nothing is gated on order
    shared.engine_dead.store(true, Ordering::Relaxed);
    shared.set_degraded(true);
    drain_acks(shared, inflight);
    let dropped: Vec<QueuedReport> = inflight.drain(..).map(|(_, item)| item).collect();
    shed_items(shared, dropped);
}

/// Sheds a batch of queued reports with `EngineDegraded`.
fn shed_items(shared: &Arc<Shared>, items: Vec<QueuedReport>) {
    for item in &items {
        pump_shed(shared, item, ShedReason::EngineDegraded);
    }
}

/// Waits (bounded) for the engine to take durable ownership of the
/// in-flight tail at shutdown, then sheds whatever is left.
fn finish_inflight(shared: &Arc<Shared>, inflight: &mut VecDeque<(u64, QueuedReport)>) {
    let deadline = Instant::now() + Duration::from_secs(5);
    // Relaxed: one-way latch; a stale read costs one extra wait tick
    while !shared.engine_dead.load(Ordering::Relaxed)
        && !inflight.is_empty()
        && Instant::now() < deadline
    {
        drain_acks(shared, inflight);
        if inflight.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let rest: Vec<QueuedReport> = inflight.drain(..).map(|(_, item)| item).collect();
    shed_items(shared, rest);
}

fn pump_shed(shared: &Arc<Shared>, item: &QueuedReport, reason: ShedReason) {
    shared.stats.record_shed(reason);
    shared.registry.shed(item.session, item.seq, reason);
    // Drain sheds are always traced, like door sheds: an already-traced
    // item gets a shed leaf under its session-admit span (spanning its
    // fruitless queue wait); an untraced one gets a fresh root so the
    // shed is still visible in the dump.
    if let Some(sink) = shared.config.spans.as_deref() {
        let now = now_nanos();
        if item.trace != 0 {
            let start = if item.enqueued_nanos != 0 {
                item.enqueued_nanos
            } else {
                now
            };
            sink.record_stage(
                item.trace,
                Stage::Shed,
                u32::from(reason.code()),
                start,
                now,
                true,
            );
        } else {
            sink.note_trace_sampled();
            let trace = mint_trace(shared.config.trace_seed ^ item.session, item.seq);
            sink.record_stage(
                trace,
                Stage::Shed,
                u32::from(reason.code()),
                now,
                now,
                false,
            );
        }
    }
    // Relaxed: monotone liveness counter; the watchdog only compares snapshots
    shared.progress.fetch_add(1, Ordering::Relaxed);
}

/// Degraded-mode control loop plus housekeeping.
fn watchdog_loop(shared: &Arc<Shared>) {
    let tick = shared.config.watchdog_tick.max(Duration::from_millis(1));
    let push_every = shared.config.snapshot_push_interval;
    // Relaxed: monotone liveness counter; the watchdog only compares snapshots
    let mut last_progress = shared.progress.load(Ordering::Relaxed);
    let mut progress_moved_at = Instant::now();
    let mut last_push = Instant::now();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(tick);

        // Track pump progress.
        // Relaxed: monotone liveness counter; a missed tick just delays the stall verdict
        let progress = shared.progress.load(Ordering::Relaxed);
        if progress != last_progress {
            last_progress = progress;
            progress_moved_at = Instant::now();
        }

        // Relaxed: one-way latch; the watchdog re-reads it every tick
        let engine_dead = shared.engine_dead.load(Ordering::Relaxed);
        let depth = shared.queue.depth();
        // Relaxed: degraded transitions are decided between the watchdog and the pump, both of which re-read every pass
        let degraded = shared.degraded.load(Ordering::Relaxed);
        if engine_dead {
            shared.set_degraded(true);
        } else if !degraded {
            let backlogged = depth >= shared.config.admission.high_watermark.max(1);
            let stalled =
                progress_moved_at.elapsed() > shared.config.admission.stall_grace && depth > 0;
            if backlogged && stalled {
                shared.set_degraded(true);
            }
        } else if depth <= shared.config.admission.low_watermark
            && progress_moved_at.elapsed() <= shared.config.admission.stall_grace
        {
            // Backlog drained and the pump is moving again: recover.
            shared.set_degraded(false);
        }

        // Keep the degraded-duration gauge fresh for scrapes.
        shared
            .stats
            .degraded_since_ms
            .store(shared.degraded_for_ms(), Ordering::Relaxed);

        // Mirror the span sink's counters into the scrapeable stats.
        if let Some(sink) = shared.config.spans.as_deref() {
            shared
                .stats
                .spans_dropped
                .store(sink.dropped(), Ordering::Relaxed);
            shared
                .stats
                .traces_sampled
                .store(sink.sampled(), Ordering::Relaxed);
        }

        // Refresh the last-good top-k while the engine is alive.
        if !engine_dead {
            let fresh = shared.sink.topk();
            let mut guard = match shared.last_good.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            *guard = fresh;
        }

        // Session GC and snapshot pushes.
        shared.registry.gc(Instant::now());
        if !push_every.is_zero() && last_push.elapsed() >= push_every {
            last_push = Instant::now();
            let entries: Vec<(u32, i64)> = {
                let guard = match shared.last_good.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                guard.iter().map(|e| (e.place.0, e.safety)).collect()
            };
            // Relaxed: the degraded label on a snapshot is advisory
            let now_degraded = shared.degraded.load(Ordering::Relaxed);
            shared.registry.push_snapshot_all(now_degraded, &entries);
        }
    }
}
