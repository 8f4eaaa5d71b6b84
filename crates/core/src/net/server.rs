//! The networked ingest front door: accept loop, connection handlers and
//! drain pump.
//!
//! Thread shape (all owned by [`IngestServer`]): accept and pump are one
//! thread each, plus two per connection.
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
//!   up for the stop flag and the slowloris clock, how often a stuck
//!   write is retried, and how often the pump does its housekeeping.
//! * **pump** — the only thread that feeds the engine: pops queued
//!   reports, sheds the ones that outlived the ingest deadline, and
//!   forwards the rest to the [`EngineSink`] exactly once. A forwarded
//!   report is *not* acked at hand-off: it stays in the pump's in-flight
//!   tail until the sink's [durable mark](EngineSink::durable_mark)
//!   covers it, so an ack can never run ahead of the engine's journal —
//!   the invariant restart from the directory leans on.
//!   The pump reads the mark on every pass, so while reports keep coming
//!   acks ride on arrivals; each time the engine has synced a commit group
//!   it fires the hook installed through [`EngineSink::set_durable_hook`]
//!   once, which [kicks](AdmissionQueue::kick) the pump out of its park to
//!   hand out the acks now covered.
//!   Engine backpressure is absorbed here (bounded retry against the
//!   deadline). Once per `io_tick` — on an idle pop, between reports under
//!   load, and inside the backpressure retry — the pump also does the
//!   door's housekeeping: it refreshes the served top-k (which drains the
//!   engine's event channel), collects idle sessions, pushes snapshots and
//!   refreshes the gauges. Housekeeping never wakes the pump on its own.
//!
//! Degraded means the engine died, and nothing else: seen by a failing
//! hand-off or by the idle [`EngineSink::dead`] probe, a death sheds the
//! unacked tail with [`ShedReason::EngineDegraded`] and latches the door
//! degraded for good. From then on ingest sheds with `EngineDegraded`
//! while the last-good top-k keeps being served to subscribers and
//! `/healthz` reports `degraded: true`. A slow engine is not a dead one:
//! the admission queue's watermarks and the ingest deadline shed around
//! it. The supervisor's restart budget is the only in-process restart,
//! and a dead engine comes back as a new process
//! ([`SupervisedPipeline::recover_from_dir`] behind a fresh door).

use super::admission::{AdmissionConfig, AdmissionQueue, QueuedReport};
use super::session::{
    Link, OpenError, OutboundNote, ReportClass, SessionConfig, SessionOpen, SessionRegistry,
};
use super::stats::{NetStats, ShedReason};
use super::wire::{ByeReason, DecodeError, FrameDecoder, FrameWriter, Message};
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
use std::sync::{Arc, Mutex, OnceLock};
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
/// validated ingest gate inside the supervisor, and
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

/// An engine stand-in that accepts everything and counts it.
#[derive(Debug, Default)]
pub struct CountingSink {
    accepted: AtomicU64,
}

impl CountingSink {
    /// Reports accepted so far.
    pub fn accepted(&self) -> u64 {
        // Relaxed: monotone test-support counter; readers only compare totals after joins
        self.accepted.load(Ordering::Relaxed)
    }
}

impl EngineSink for CountingSink {
    fn try_ingest(&self, _report: TracedReport) -> Result<(), SinkError> {
        // Relaxed: monotone test-support counter; no other state is published through it
        self.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn topk(&self) -> Vec<TopKEntry> {
        vec![TopKEntry {
            place: PlaceId(0),
            safety: 0,
        }]
    }
}

/// Channel capacity of the supervised pipeline behind a served front
/// door: `ctup serve` runs with it.
pub const PIPELINE_CAPACITY: usize = 4096;

/// Full configuration of the front door.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Admission queue sizing and deadlines.
    pub admission: AdmissionConfig,
    /// Session registry sizing.
    pub session: SessionConfig,
    /// Socket read/write timeout: how often a blocked reader half comes
    /// up for the stop flag and the slowloris clock, how often a stuck
    /// write is retried, and the pump's idle stop-check and housekeeping
    /// cadence. No reply waits for it.
    pub io_tick: Duration,
    /// A started frame must complete within this (slowloris eviction).
    pub frame_deadline: Duration,
    /// A write backlog must drain within this (slow-reader eviction).
    pub write_deadline: Duration,
    /// Hard cap in bytes on a connection's outbound backlog.
    pub max_write_backlog: usize,
    /// Cadence of server-pushed snapshots (checked once per `io_tick`);
    /// zero disables pushing.
    pub snapshot_push_interval: Duration,
    /// Unused: the server no longer reads it. Kept only because
    /// `ledger/src/sut.rs` sets it; ROADMAP item 1(b) removes it.
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
            io_tick: Duration::from_millis(25),
            frame_deadline: Duration::from_secs(2),
            write_deadline: Duration::from_secs(2),
            max_write_backlog: 256 * 1024,
            snapshot_push_interval: Duration::from_millis(250),
            state_dir: None,
            spans: None,
            trace_sample_every: 0,
            trace_seed: 0,
        }
    }
}

/// Cap on concurrent connections; beyond it new ones get
/// `Bye(ServerFull)` and are counted as rejected.
const MAX_CONNECTIONS: usize = 256;

/// A connection must complete its `Hello` within this.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(2);

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
    stop: AtomicBool,
    /// When the engine died: set once, never cleared. The door is
    /// degraded exactly while it is set.
    died_at: OnceLock<Instant>,
    conn_count: AtomicUsize,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("degraded", &self.degraded())
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

    /// Whether the engine died.
    fn degraded(&self) -> bool {
        self.died_at.get().is_some()
    }

    /// Milliseconds since the engine died, 0 while it lives.
    fn degraded_for_ms(&self) -> u64 {
        self.died_at.get().map_or(0, |t| {
            u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX)
        })
    }

    /// Copies the span sink's counters and the degraded clock into the
    /// scrapeable stats.
    fn publish_gauges(&self) {
        // Relaxed (all three): advisory gauges, see `stats`
        self.stats
            .degraded_since_ms
            .store(self.degraded_for_ms(), Ordering::Relaxed);
        if let Some(sink) = self.config.spans.as_deref() {
            self.stats
                .spans_dropped
                .store(sink.dropped(), Ordering::Relaxed);
            self.stats
                .traces_sampled
                .store(sink.sampled(), Ordering::Relaxed);
        }
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
}

impl IngestServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving `sink`. Engine
    /// death degrades the door for good.
    pub fn spawn(
        addr: &str,
        config: NetServerConfig,
        sink: Arc<dyn EngineSink>,
    ) -> std::io::Result<IngestServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(NetStats::default());
        let shared = Arc::new(Shared {
            registry: SessionRegistry::new(config.session.clone(), Arc::clone(&stats)),
            queue: Arc::new(AdmissionQueue::new(
                config.admission.clone(),
                Arc::clone(&stats),
            )),
            config,
            stats,
            sink,
            stop: AtomicBool::new(false),
            died_at: OnceLock::new(),
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
        Ok(IngestServer {
            addr,
            shared,
            accept: Some(accept),
            pump: Some(pump),
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

    /// Whether the engine died: false until then, true from then on.
    pub fn degraded(&self) -> bool {
        self.shared.degraded()
    }

    /// The last-good top-k: the engine's current one while it lives, and
    /// after its death the one it left (no event arrives any more).
    pub fn last_good_topk(&self) -> Vec<TopKEntry> {
        self.shared.sink.topk()
    }

    /// The `/healthz` body: liveness plus the degraded flag, the load
    /// gauges, the time since the engine died and the build stamp, as one
    /// flat JSON object.
    pub fn health_body(&self) -> String {
        let degraded = self.degraded();
        let mut obj = ObjectWriter::new();
        obj.field_str("status", if degraded { "degraded" } else { "ok" });
        obj.field_bool("degraded", degraded);
        obj.field_u64("sessions", convert::count64(self.shared.registry.active()));
        obj.field_u64("queue_depth", convert::count64(self.shared.queue.depth()));
        obj.field_u64("degraded_since_ms", self.shared.degraded_for_ms());
        obj.field_str("build", &build_info());
        obj.finish()
    }

    /// Stops accepting, drains the admission queue through the pump, joins
    /// every thread and returns the final counters.
    pub fn shutdown(mut self) -> super::stats::NetStatsSnapshot {
        self.stop_threads();
        // Final copy of the gauges: the pump may not have done its
        // housekeeping since the last traced report, and the shutdown
        // snapshot must account for every sampled trace.
        self.shared.publish_gauges();
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
        if active >= MAX_CONNECTIONS {
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

    // Handshake: the first frame must be a Hello, which opens a feed
    // session. Anything else within the deadline is a violation.
    let handshake_deadline = Instant::now() + HANDSHAKE_DEADLINE;
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
                    // Hello mid-stream or a server-only frame from a
                    // client: protocol violation.
                    Message::Hello { .. }
                    | Message::Ack { .. }
                    | Message::Shed { .. }
                    | Message::SnapshotPush { .. } => {
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
            if shared.degraded() {
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
    let mut chores = Housekeeping::new(Instant::now());
    loop {
        drain_acks(shared, &mut inflight);
        // Parks until a report arrives, the engine kicks (it synced a
        // commit group and moved the durable mark: the pass above has acks
        // to hand out), or a tick passes (stop flag, liveness probe,
        // housekeeping).
        let Some(item) = shared.queue.pop(tick) else {
            if shared.stop.load(Ordering::SeqCst) {
                finish_inflight(shared, &mut inflight, &mut chores);
                return;
            }
            // Idle liveness probe: with the queue drained, a dead engine
            // would never be discovered through a failing hand-off, so an
            // unacked tail would hang forever — and with everything acked
            // (a kill right after the last report's journal write), the
            // door would keep claiming health over a top-k that misses
            // those reports.
            if !shared.degraded() && shared.sink.dead() {
                engine_died(shared, &mut inflight);
            }
            chores.run_if_due(shared, Instant::now());
            continue;
        };
        let now = Instant::now();
        chores.run_if_due(shared, now);
        if now.saturating_duration_since(item.enqueued_at) > deadline {
            pump_shed(shared, &item, ShedReason::DeadlineExceeded);
            continue;
        }
        if shared.degraded() {
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
                    // A full event channel is one way the engine stops
                    // taking reports; housekeeping drains it.
                    chores.run_if_due(shared, Instant::now());
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

/// The door's periodic work, done by the pump at most once per `io_tick`
/// wherever it passes [`run_if_due`](Housekeeping::run_if_due); it adds
/// no wake-up of its own.
struct Housekeeping {
    last_run: Instant,
    last_push: Instant,
}

impl Housekeeping {
    fn new(now: Instant) -> Self {
        Housekeeping {
            last_run: now,
            last_push: now,
        }
    }

    /// Refreshes the served top-k — which also drains the engine's event
    /// channel, so its apply stage never blocks on a full one — collects
    /// idle sessions, pushes a snapshot when one is due and refreshes the
    /// gauges; a no-op until a tick has passed since the last run.
    fn run_if_due(&mut self, shared: &Shared, now: Instant) {
        if now.saturating_duration_since(self.last_run) < shared.config.io_tick {
            return;
        }
        self.last_run = now;
        let topk = shared.sink.topk();
        shared.registry.gc(now);
        let push_every = shared.config.snapshot_push_interval;
        if !push_every.is_zero() && now.saturating_duration_since(self.last_push) >= push_every {
            self.last_push = now;
            let entries: Vec<(u32, i64)> = topk.iter().map(|e| (e.place.0, e.safety)).collect();
            shared
                .registry
                .push_snapshot_all(shared.degraded(), &entries);
        }
        shared.publish_gauges();
    }
}

/// Acks every in-flight report the sink's durable mark now covers.
fn drain_acks(shared: &Arc<Shared>, inflight: &mut VecDeque<(u64, QueuedReport)>) {
    if inflight.is_empty() {
        return;
    }
    let mark = shared.sink.durable_mark();
    while inflight.front().is_some_and(|&(idx, _)| idx <= mark) {
        if let Some((_, item)) = inflight.pop_front() {
            shared
                .stats
                .reports_accepted
                .fetch_add(1, Ordering::Relaxed);
            let wait = convert::nanos64(item.enqueued_at.elapsed().as_nanos());
            shared.stats.ingest_wait_nanos.record(wait);
            shared.stats.record_exemplar(wait, item.trace);
            shared.registry.drained(item.session, item.seq);
        }
    }
}

/// Called with the engine dead: latches the door degraded for good, acks
/// what the final durable mark covers, and sheds the rest of the tail
/// with `EngineDegraded`. A dead engine's mark has stopped, so acked is
/// then exactly what the journal holds.
fn engine_died(shared: &Arc<Shared>, inflight: &mut VecDeque<(u64, QueuedReport)>) {
    if shared.died_at.set(Instant::now()).is_ok() {
        // Relaxed: advisory gauge; the latch above is what sheds
        shared.stats.degraded.store(true, Ordering::Relaxed);
    }
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
fn finish_inflight(
    shared: &Arc<Shared>,
    inflight: &mut VecDeque<(u64, QueuedReport)>,
    chores: &mut Housekeeping,
) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !shared.degraded() && !inflight.is_empty() && Instant::now() < deadline {
        drain_acks(shared, inflight);
        if inflight.is_empty() {
            break;
        }
        chores.run_if_due(shared, Instant::now());
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
}
