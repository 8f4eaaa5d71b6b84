//! Level-2 recovery: the warm standby.
//!
//! A [`StandbyServer`] is a second process kept hot behind a primary
//! `ctup serve`. It bootstraps by subscribing to the primary's
//! replication stream (an all-zero `CheckpointOffer` as its first frame),
//! restores the shipped checkpoint into a live monitor, then **follows**:
//! every `WalAppend` the primary's pump hands its engine is applied
//! through the standby's own ingest gate (whose replayed dedup state
//! makes the journal-tail/live-stream overlap exactly-once), so the
//! standby's top-k trails the primary by one network hop.
//!
//! **Promotion.** The standby probes the primary's liveness on a timer
//! (a `PromoteQuery` dial — the probe exercises the real serve loop, not
//! a sidecar). After [`StandbyConfig::probe_failures`] consecutive silent
//! probes it runs one final *fencing* probe; only silence there lets it
//! promote. Promotion bumps the fencing epoch to `primary_epoch + 1`,
//! hands the live monitor and its gate to a supervised pipeline, and spawns
//! a full [`IngestServer`] on [`StandbyConfig::serve_addr`] — serving at
//! the new epoch, with session ids minted from an epoch-fenced base so
//! they can never collide with ids the old primary handed out. A
//! partitioned old primary that comes back finds its stale (lower-epoch)
//! WAL appends rejected and counted in
//! [`StandbyStatus::stale_rejected`] — there is never a moment with two
//! primaries at the same epoch.

use super::server::{EngineSink, IngestServer, NetServerConfig, PipelineSink};
use super::wire::{ByeReason, FrameDecoder, FrameWriter, Message};
use crate::checkpoint::{Checkpoint, Checkpointable};
use crate::ingest::{IngestConfig, IngestGate, StampedUpdate};
use crate::metrics::ResilienceStats;
use crate::supervisor::{ResilienceConfig, SupervisedPipeline};
use crate::types::{LocationUpdate, TopKEntry, UnitId};
use ctup_obs::{now_nanos, SpanSink, Stage};
use ctup_spatial::Point;
use ctup_storage::PlaceStore;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything a standby needs to follow one primary and take over.
#[derive(Debug, Clone)]
pub struct StandbyConfig {
    /// The primary's ingest address (replication rides the same port).
    pub primary_ingest: SocketAddr,
    /// Address the promoted server binds (e.g. `127.0.0.1:0`).
    pub serve_addr: String,
    /// Front-door configuration of the promoted server; its `epoch`,
    /// `session.first_session_id` and `state_dir` are overwritten at
    /// promotion time.
    pub net: NetServerConfig,
    /// Supervision of the promoted engine; point its `state_dir` at the
    /// standby's own durable directory.
    pub resilience: ResilienceConfig,
    /// Channel capacity of the promoted pipeline.
    pub capacity: usize,
    /// Socket connect timeout for every dial.
    pub connect_timeout: Duration,
    /// Read/write tick on the replication connection.
    pub io_tick: Duration,
    /// How long a full checkpoint sync may take before it is retried.
    pub sync_deadline: Duration,
    /// Cadence of primary liveness probes while following.
    pub probe_interval: Duration,
    /// Consecutive silent probes before promotion is attempted.
    pub probe_failures: u32,
    /// Pause between failed sync attempts.
    pub resync_delay: Duration,
}

impl Default for StandbyConfig {
    fn default() -> Self {
        StandbyConfig {
            primary_ingest: SocketAddr::from(([127, 0, 0, 1], 0)),
            serve_addr: "127.0.0.1:0".to_string(),
            net: NetServerConfig::default(),
            resilience: ResilienceConfig::default(),
            capacity: 1024,
            connect_timeout: Duration::from_millis(500),
            io_tick: Duration::from_millis(25),
            sync_deadline: Duration::from_secs(10),
            probe_interval: Duration::from_millis(250),
            probe_failures: 3,
            resync_delay: Duration::from_millis(100),
        }
    }
}

/// Where the standby is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StandbyPhase {
    /// Dialing the primary / receiving the checkpoint.
    Syncing,
    /// Checkpoint restored; applying the live WAL stream.
    Following,
    /// Probes went dark; running the fencing protocol.
    Promoting,
    /// This standby is now the primary (serving at a bumped epoch).
    Promoted,
    /// Unrecoverable local failure (restore error, storage error).
    Failed(String),
}

/// A point-in-time view of the standby.
#[derive(Debug, Clone)]
pub struct StandbyStatus {
    /// Current lifecycle phase.
    pub phase: StandbyPhase,
    /// The fencing epoch: the primary's while following, the bumped one
    /// once promoted.
    pub epoch: u64,
    /// WAL appends applied through the standby's gate.
    pub wal_applied: u64,
    /// Replication frames rejected for carrying a stale epoch.
    pub stale_rejected: u64,
}

struct StandbyShared {
    stop: AtomicBool,
    status: Mutex<StandbyStatus>,
    topk: Mutex<Vec<TopKEntry>>,
    promoted: Mutex<Option<IngestServer>>,
}

impl StandbyShared {
    fn lock_status(&self) -> std::sync::MutexGuard<'_, StandbyStatus> {
        match self.status.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn set_phase(&self, phase: StandbyPhase) {
        self.lock_status().phase = phase;
    }

    fn set_topk(&self, entries: Vec<TopKEntry>) {
        let mut guard = match self.topk.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        *guard = entries;
    }
}

/// A running warm standby. Dropping it (or calling
/// [`StandbyServer::shutdown`]) stops the follower thread and, if
/// promotion happened, the promoted front door.
pub struct StandbyServer {
    shared: Arc<StandbyShared>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for StandbyServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StandbyServer").finish_non_exhaustive()
    }
}

impl StandbyServer {
    /// Starts following the primary in `config`. `store` is the local
    /// lower level the restored monitor (and, after promotion, the
    /// promoted engine) runs over.
    pub fn spawn<A>(config: StandbyConfig, store: Arc<dyn PlaceStore>) -> StandbyServer
    where
        A: Checkpointable + Send + 'static,
    {
        let shared = Arc::new(StandbyShared {
            stop: AtomicBool::new(false),
            status: Mutex::new(StandbyStatus {
                phase: StandbyPhase::Syncing,
                epoch: 0,
                wal_applied: 0,
                stale_rejected: 0,
            }),
            topk: Mutex::new(Vec::new()),
            promoted: Mutex::new(None),
        });
        let for_thread = Arc::clone(&shared);
        // The handle is joined in `stop_thread` (shutdown / Drop).
        let thread = std::thread::Builder::new()
            .name("ctup-standby".to_string())
            .spawn(move || standby_loop::<A>(&config, &store, &for_thread))
            .ok();
        StandbyServer { shared, thread }
    }

    /// The standby's current status.
    pub fn status(&self) -> StandbyStatus {
        self.shared.lock_status().clone()
    }

    /// The read-only top-k the standby is tracking (or, once promoted,
    /// last published before promotion; query the promoted server after).
    pub fn topk(&self) -> Vec<TopKEntry> {
        match self.shared.topk.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// The promoted front door's address, once promotion happened.
    pub fn promoted_addr(&self) -> Option<SocketAddr> {
        let guard = match self.shared.promoted.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.as_ref().map(|s| s.local_addr())
    }

    /// The promoted front door's `/healthz` body, once promoted.
    pub fn promoted_health(&self) -> Option<String> {
        let guard = match self.shared.promoted.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.as_ref().map(|s| s.health_body())
    }

    /// A snapshot of the promoted front door's counters, once promoted
    /// (for publishing the promoted server's metrics from the standby
    /// process).
    pub fn promoted_net_snapshot(&self) -> Option<super::stats::NetStatsSnapshot> {
        let guard = match self.shared.promoted.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.as_ref().map(|s| s.stats().snapshot())
    }

    /// The promoted front door's last-good top-k, once promoted.
    pub fn promoted_topk(&self) -> Option<Vec<TopKEntry>> {
        let guard = match self.shared.promoted.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.as_ref().map(|s| s.last_good_topk())
    }

    /// Stops the follower thread and the promoted server (if any).
    pub fn shutdown(mut self) {
        self.stop_thread();
    }

    fn stop_thread(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
        let promoted = {
            let mut guard = match self.shared.promoted.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.take()
        };
        drop(promoted); // IngestServer::drop joins its threads
    }
}

impl Drop for StandbyServer {
    fn drop(&mut self) {
        self.stop_thread();
    }
}

/// Outcome of one sync-and-follow pass.
enum FollowEnd {
    /// Stop flag observed.
    Stopping,
    /// The connection died or the sync failed; retry after the delay.
    Retry,
    /// Probes (and the fencing probe) went dark; we promoted.
    Promoted,
    /// Local unrecoverable failure.
    Failed(String),
}

fn standby_loop<A>(config: &StandbyConfig, store: &Arc<dyn PlaceStore>, shared: &StandbyShared)
where
    A: Checkpointable + Send + 'static,
{
    while !shared.stop.load(Ordering::SeqCst) {
        shared.set_phase(StandbyPhase::Syncing);
        match sync_and_follow::<A>(config, store, shared) {
            FollowEnd::Stopping | FollowEnd::Promoted => return,
            FollowEnd::Failed(why) => {
                shared.set_phase(StandbyPhase::Failed(why));
                return;
            }
            FollowEnd::Retry => {
                std::thread::sleep(config.resync_delay);
            }
        }
    }
}

fn sync_and_follow<A>(
    config: &StandbyConfig,
    store: &Arc<dyn PlaceStore>,
    shared: &StandbyShared,
) -> FollowEnd
where
    A: Checkpointable + Send + 'static,
{
    // --- Sync: subscribe, receive the checkpoint, restore. ---
    let Ok(mut stream) = dial(config.primary_ingest, config) else {
        // Could not even dial for sync; without a restored monitor there
        // is nothing to promote, so all we can do is retry.
        return FollowEnd::Retry;
    };
    let mut decoder = FrameDecoder::new();
    let mut writer = FrameWriter::new();
    writer.push(&Message::CheckpointOffer {
        epoch: 0,
        slot_seq: 0,
        total_len: 0,
    });
    if !flush_all(&mut writer, &mut stream, config.sync_deadline) {
        return FollowEnd::Retry;
    }
    let sync_deadline = Instant::now() + config.sync_deadline;
    let mut primary_epoch: u64 = 0;
    let mut total_len: Option<u64> = None;
    let mut body: Vec<u8> = Vec::new();
    let checkpoint = loop {
        if shared.stop.load(Ordering::SeqCst) {
            return FollowEnd::Stopping;
        }
        if Instant::now() > sync_deadline {
            return FollowEnd::Retry;
        }
        match decoder.read_from(&mut stream) {
            Ok(Message::CheckpointOffer {
                epoch,
                total_len: n,
                ..
            }) => {
                primary_epoch = epoch;
                total_len = Some(n);
                body = Vec::with_capacity(usize::try_from(n).unwrap_or(0));
                if n == 0 {
                    break Checkpoint::read(body.as_slice());
                }
            }
            Ok(Message::CheckpointChunk { offset, data, .. }) => {
                let Some(expect) = total_len else {
                    return FollowEnd::Retry; // chunk before offer
                };
                if offset != u64::try_from(body.len()).unwrap_or(u64::MAX) {
                    return FollowEnd::Retry; // hole in the stream
                }
                body.extend_from_slice(&data);
                if u64::try_from(body.len()).unwrap_or(u64::MAX) >= expect {
                    break Checkpoint::read(body.as_slice());
                }
            }
            Ok(Message::WalAppend { .. }) => {
                // Journal tail before the checkpoint finished: impossible
                // in a well-formed stream (the server ships the chunks
                // first), treat as a resync condition.
                return FollowEnd::Retry;
            }
            Ok(Message::Bye { .. }) => return FollowEnd::Retry,
            Ok(_) => return FollowEnd::Retry,
            Err(e) if e.is_timeout() => continue,
            Err(_) => return FollowEnd::Retry,
        }
    };
    let checkpoint = match checkpoint {
        Ok(cp) => cp,
        Err(e) => return FollowEnd::Failed(format!("shipped checkpoint unreadable: {e:?}")),
    };
    let gate_config = IngestConfig {
        space: *store.grid().space(),
        num_units: checkpoint.unit_positions.len(),
        lease_ttl: config.resilience.lease_ttl,
    };
    let mut gate = match checkpoint.gate.clone() {
        Some(state) if state.units.len() == gate_config.num_units => {
            IngestGate::from_state(gate_config, state)
        }
        _ => IngestGate::new(gate_config),
    };
    let mut alg = match A::restore(checkpoint, Arc::clone(store)) {
        Ok(alg) => alg,
        Err(e) => return FollowEnd::Failed(format!("checkpoint restore failed: {e:?}")),
    };
    {
        let mut status = shared.lock_status();
        status.phase = StandbyPhase::Following;
        status.epoch = primary_epoch;
    }
    shared.set_topk(alg.result());
    let mut rstats = ResilienceStats::default();

    // --- Follow: apply the WAL stream, probe the primary on a timer. ---
    let mut last_probe = Instant::now();
    let mut silent_probes: u32 = 0;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            let _ = send_bye(&mut stream, ByeReason::Shutdown);
            return FollowEnd::Stopping;
        }
        match decoder.read_from(&mut stream) {
            Ok(msg @ Message::WalAppend { .. }) => {
                if let Err(why) = apply_wal(
                    &msg,
                    primary_epoch,
                    &mut gate,
                    &mut alg,
                    &mut rstats,
                    shared,
                    config.resilience.spans.as_deref(),
                ) {
                    return FollowEnd::Failed(why);
                }
                shared.set_topk(alg.result());
            }
            Ok(Message::Bye { .. }) => {
                // The primary said goodbye (shutdown or eviction): decide
                // between resync and promotion by probing.
                return follow_lost::<A>(config, shared, primary_epoch, gate, alg);
            }
            Ok(_) => {
                // Nothing else belongs on a replication stream.
                return FollowEnd::Retry;
            }
            Err(e) if e.is_timeout() => {}
            Err(_) => {
                return follow_lost::<A>(config, shared, primary_epoch, gate, alg);
            }
        }
        if last_probe.elapsed() >= config.probe_interval {
            last_probe = Instant::now();
            if probe_primary(config) {
                silent_probes = 0;
            } else {
                silent_probes += 1;
                if silent_probes >= config.probe_failures.max(1) {
                    return promote::<A>(config, shared, primary_epoch, gate, alg);
                }
            }
        }
    }
}

/// The replication connection died. One probe decides: a live primary
/// means resync, a silent one starts the promotion ladder immediately
/// (connection loss already counts as evidence).
fn follow_lost<A>(
    config: &StandbyConfig,
    shared: &StandbyShared,
    primary_epoch: u64,
    gate: IngestGate,
    alg: A,
) -> FollowEnd
where
    A: Checkpointable + Send + 'static,
{
    let mut silent = 0;
    for _ in 0..config.probe_failures.max(1) {
        if shared.stop.load(Ordering::SeqCst) {
            return FollowEnd::Stopping;
        }
        if probe_primary(config) {
            return FollowEnd::Retry;
        }
        silent += 1;
        std::thread::sleep(config.probe_interval);
    }
    if silent >= config.probe_failures.max(1) {
        return promote::<A>(config, shared, primary_epoch, gate, alg);
    }
    FollowEnd::Retry
}

/// Applies one WAL frame through the standby's gate. Stale-epoch frames
/// are rejected and counted; gate rejections (duplicates from the
/// journal-tail overlap) are silently dropped — that is the dedup
/// working.
fn apply_wal<A>(
    msg: &Message,
    expected_epoch: u64,
    gate: &mut IngestGate,
    alg: &mut A,
    rstats: &mut ResilienceStats,
    shared: &StandbyShared,
    spans: Option<&SpanSink>,
) -> Result<(), String>
where
    A: Checkpointable,
{
    let Message::WalAppend {
        epoch,
        unit_seq,
        ts,
        unit,
        x,
        y,
        trace,
    } = msg
    else {
        return Ok(());
    };
    if *epoch != expected_epoch {
        let mut status = shared.lock_status();
        status.stale_rejected += 1;
        return Ok(());
    }
    let stamped = StampedUpdate {
        seq: *unit_seq,
        ts: *ts,
        update: LocationUpdate {
            unit: UnitId(*unit),
            new: Point::new(*x, *y),
        },
    };
    let apply_start = if *trace != 0 { now_nanos() } else { 0 };
    match gate.admit(stamped, rstats) {
        Ok(effective) => {
            for update in effective {
                if let Err(e) = alg.handle_update(update) {
                    return Err(format!("storage error while following: {e:?}"));
                }
            }
            let mut status = shared.lock_status();
            status.wal_applied += 1;
            drop(status);
            // The standby-apply span parents onto the wal-append span the
            // primary recorded for this report — in a single dump that
            // stitches the replication hop into the causal chain; across
            // two processes each dump holds its half of the trace.
            if let Some(sink) = spans {
                sink.record_stage(
                    *trace,
                    Stage::StandbyApply,
                    0,
                    apply_start,
                    now_nanos(),
                    true,
                );
            }
        }
        Err(_) => {
            // Duplicate/stale per the gate: the journal-tail overlap or a
            // primary retransmit. Exactly-once is preserved by dropping.
        }
    }
    Ok(())
}

/// The promotion ladder: one final fencing probe, then epoch bump, the
/// followed engine handed to a supervised pipeline, and front-door spawn. The fencing probe is what makes
/// promotion single-writer: a primary that answers it is alive, so the
/// standby aborts and resyncs instead of forking the world.
fn promote<A>(
    config: &StandbyConfig,
    shared: &StandbyShared,
    primary_epoch: u64,
    gate: IngestGate,
    alg: A,
) -> FollowEnd
where
    A: Checkpointable + Send + 'static,
{
    shared.set_phase(StandbyPhase::Promoting);
    if probe_primary(config) {
        // Fencing probe answered: the primary lives. Never promote.
        return FollowEnd::Retry;
    }
    let new_epoch = primary_epoch.saturating_add(1);
    // The followed engine is live and correct, and the gate carries the
    // dedup and lease decisions: both are handed over as they are.
    let pipeline = SupervisedPipeline::spawn_with_gate(
        alg,
        gate,
        config.resilience.clone(),
        config.capacity,
        ResilienceStats::default(),
    );
    let sink: Arc<dyn EngineSink> = Arc::new(PipelineSink::from_pipeline(pipeline));
    let mut net = config.net.clone();
    net.epoch = new_epoch;
    // Fence fresh session ids far above anything the old primary minted,
    // so a client resuming an old session can never capture a new one.
    net.session.first_session_id = (new_epoch << 32) | 1;
    net.state_dir = config.resilience.state_dir.clone();
    // A failover is exactly when operators need traces: if tracing is
    // wired at all, the promoted front door samples every report until a
    // human dials it back.
    if net.spans.is_some() {
        net.trace_sample_every = 1;
    }
    let server = match IngestServer::spawn(&config.serve_addr, net, sink) {
        Ok(s) => s,
        Err(e) => return FollowEnd::Failed(format!("promoted bind failed: {e}")),
    };
    server.stats().failovers.fetch_add(1, Ordering::Relaxed);
    {
        let mut guard = match shared.promoted.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        *guard = Some(server);
    }
    {
        let mut status = shared.lock_status();
        status.phase = StandbyPhase::Promoted;
        status.epoch = new_epoch;
    }
    FollowEnd::Promoted
}

fn dial(addr: SocketAddr, config: &StandbyConfig) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
    stream.set_read_timeout(Some(config.io_tick))?;
    stream.set_write_timeout(Some(config.io_tick))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// One liveness probe: dial, send `PromoteQuery`, wait briefly for the
/// epoch echo. `true` means the primary answered (it is alive).
fn probe_primary(config: &StandbyConfig) -> bool {
    let Ok(mut stream) = dial(config.primary_ingest, config) else {
        return false;
    };
    let mut writer = FrameWriter::new();
    writer.push(&Message::PromoteQuery { epoch: 0 });
    if !flush_all(&mut writer, &mut stream, config.probe_interval) {
        return false;
    }
    let mut decoder = FrameDecoder::new();
    let deadline = Instant::now() + config.probe_interval.max(Duration::from_millis(50));
    loop {
        if Instant::now() > deadline {
            return false;
        }
        match decoder.read_from(&mut stream) {
            Ok(Message::PromoteQuery { .. }) => return true,
            Ok(_) => return true, // it spoke; it lives
            Err(e) if e.is_timeout() => continue,
            Err(_) => return false,
        }
    }
}

fn flush_all(writer: &mut FrameWriter, stream: &mut TcpStream, budget: Duration) -> bool {
    let deadline = Instant::now() + budget;
    while writer.pending() > 0 {
        if Instant::now() > deadline {
            return false;
        }
        match writer.flush_into(stream) {
            Ok(true) => return true,
            Ok(false) => std::thread::sleep(Duration::from_millis(1)),
            Err(_) => return false,
        }
    }
    true
}

fn send_bye(stream: &mut TcpStream, reason: ByeReason) -> bool {
    let mut writer = FrameWriter::new();
    writer.push(&Message::Bye { reason });
    flush_all(&mut writer, stream, Duration::from_millis(100))
}
