//! Level-2 recovery: the warm standby.
//!
//! A [`StandbyServer`] is a second process kept hot behind a primary
//! `ctup serve`. It bootstraps by subscribing to the primary's
//! replication stream (an all-zero `CheckpointOffer` as its first frame)
//! and validates the shipped checkpoint into a [`DurableImage`] — the
//! unit positions behind an ingest gate, the same image the primary's
//! commit stage lands its slots from. It then **follows**: every
//! `WalAppend` the primary ships, once journaled and before it acks it,
//! is folded into the image through the image's gate (whose replayed
//! dedup state makes the journal-tail/live-stream overlap exactly-once).
//! The standby runs no engine while following; its image is always a
//! prefix of the primary's journal, and the live stream never carries a
//! report the primary shed.
//!
//! **Promotion.** The standby probes the primary's liveness on a timer
//! (a `PromoteQuery` dial — the probe exercises the real serve loop, not
//! a sidecar). After [`StandbyConfig::probe_failures`] consecutive silent
//! probes it runs one final *fencing* probe; only silence there lets it
//! promote. Promotion bumps the fencing epoch to `primary_epoch + 1`,
//! initializes the monitor once from the image and spawns a supervised
//! pipeline around it and the image's gate — the restore `--recover` runs
//! over a state directory — then a full [`IngestServer`] on
//! [`StandbyConfig::serve_addr`], serving at the new epoch, with session
//! ids minted from an epoch-fenced base so they can never collide with
//! ids the old primary handed out. A partitioned old primary that comes
//! back finds its stale (lower-epoch) WAL appends rejected and counted in
//! [`StandbyStatus::stale_rejected`] — there is never a moment with two
//! primaries at the same epoch.

use super::server::{EngineSink, IngestServer, NetServerConfig, PipelineSink, PIPELINE_CAPACITY};
use super::wire::{ByeReason, FrameDecoder, FrameWriter, Message};
use crate::checkpoint::{Checkpoint, DurableImage};
use crate::ingest::StampedUpdate;
use crate::metrics::ResilienceStats;
use crate::opt::OptCtup;
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

/// Socket connect timeout for every dial. Shorter than a feed client's
/// 2 s: the liveness probe dials with it, so it bounds how long a
/// black-holed primary goes undetected.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// How long a full checkpoint sync may take before it is retried.
const SYNC_DEADLINE: Duration = Duration::from_secs(10);
/// Pause between failed sync attempts.
const RESYNC_DELAY: Duration = Duration::from_millis(100);

/// Everything a standby needs to follow one primary and take over.
#[derive(Debug, Clone)]
pub struct StandbyConfig {
    /// The primary's ingest address (replication rides the same port).
    pub primary_ingest: SocketAddr,
    /// Address the promoted server binds (e.g. `127.0.0.1:0`).
    pub serve_addr: String,
    /// Front-door configuration of the promoted server; its `epoch`,
    /// `session.first_session_id` and `state_dir` are overwritten at
    /// promotion time. Its `io_tick` also paces the replication
    /// connection.
    pub net: NetServerConfig,
    /// Supervision of the promoted engine; point its `state_dir` at the
    /// standby's own durable directory.
    pub resilience: ResilienceConfig,
    /// Cadence of primary liveness probes while following.
    pub probe_interval: Duration,
    /// Consecutive silent probes before promotion is attempted.
    pub probe_failures: u32,
}

impl Default for StandbyConfig {
    fn default() -> Self {
        StandbyConfig {
            primary_ingest: SocketAddr::from(([127, 0, 0, 1], 0)),
            serve_addr: "127.0.0.1:0".to_string(),
            net: NetServerConfig::default(),
            resilience: ResilienceConfig::default(),
            probe_interval: Duration::from_millis(250),
            probe_failures: 3,
        }
    }
}

/// Where the standby is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StandbyPhase {
    /// Dialing the primary / receiving the checkpoint.
    Syncing,
    /// Checkpoint validated into the image; folding the live WAL stream
    /// into it.
    Following,
    /// Probes went dark; running the fencing protocol.
    Promoting,
    /// This standby is now the primary (serving at a bumped epoch).
    Promoted,
    /// Unrecoverable local failure (a refused checkpoint, a restore or
    /// bind error at promotion).
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
    /// WAL appends the image's gate admitted and folded in.
    pub wal_applied: u64,
    /// Replication frames rejected for carrying a stale epoch.
    pub stale_rejected: u64,
}

struct StandbyShared {
    stop: AtomicBool,
    status: Mutex<StandbyStatus>,
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

    fn lock_promoted(&self) -> std::sync::MutexGuard<'_, Option<IngestServer>> {
        match self.promoted.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn with_promoted<T>(&self, read: impl FnOnce(&IngestServer) -> T) -> Option<T> {
        self.lock_promoted().as_ref().map(read)
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
    /// lower level the promoted [`OptCtup`] runs over.
    pub fn spawn(config: StandbyConfig, store: Arc<dyn PlaceStore>) -> StandbyServer {
        let shared = Arc::new(StandbyShared {
            stop: AtomicBool::new(false),
            status: Mutex::new(StandbyStatus {
                phase: StandbyPhase::Syncing,
                epoch: 0,
                wal_applied: 0,
                stale_rejected: 0,
            }),
            promoted: Mutex::new(None),
        });
        let for_thread = Arc::clone(&shared);
        // The handle is joined in `stop_thread` (shutdown / Drop).
        let thread = std::thread::Builder::new()
            .name("ctup-standby".to_string())
            .spawn(move || standby_loop(&config, &store, &for_thread))
            .ok();
        StandbyServer { shared, thread }
    }

    /// The standby's current status.
    pub fn status(&self) -> StandbyStatus {
        self.shared.lock_status().clone()
    }

    /// The promoted front door's address, once promotion happened.
    pub fn promoted_addr(&self) -> Option<SocketAddr> {
        self.shared.with_promoted(IngestServer::local_addr)
    }

    /// The promoted front door's `/healthz` body, once promoted.
    pub fn promoted_health(&self) -> Option<String> {
        self.shared.with_promoted(IngestServer::health_body)
    }

    /// A snapshot of the promoted front door's counters, once promoted
    /// (for publishing the promoted server's metrics from the standby
    /// process).
    pub fn promoted_net_snapshot(&self) -> Option<super::stats::NetStatsSnapshot> {
        self.shared.with_promoted(|s| s.stats().snapshot())
    }

    /// The promoted front door's last-good top-k, once promoted.
    pub fn promoted_topk(&self) -> Option<Vec<TopKEntry>> {
        self.shared.with_promoted(IngestServer::last_good_topk)
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
        let promoted = self.shared.lock_promoted().take();
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

fn standby_loop(config: &StandbyConfig, store: &Arc<dyn PlaceStore>, shared: &StandbyShared) {
    while !shared.stop.load(Ordering::SeqCst) {
        shared.set_phase(StandbyPhase::Syncing);
        match sync_and_follow(config, store, shared) {
            FollowEnd::Stopping | FollowEnd::Promoted => return,
            FollowEnd::Failed(why) => {
                shared.set_phase(StandbyPhase::Failed(why));
                return;
            }
            FollowEnd::Retry => {
                std::thread::sleep(RESYNC_DELAY);
            }
        }
    }
}

fn sync_and_follow(
    config: &StandbyConfig,
    store: &Arc<dyn PlaceStore>,
    shared: &StandbyShared,
) -> FollowEnd {
    // --- Sync: subscribe, receive the checkpoint, validate it. ---
    let Ok(mut stream) = dial(config.primary_ingest, config) else {
        // Could not even dial for sync; without a synced image there is
        // nothing to promote, so all we can do is retry.
        return FollowEnd::Retry;
    };
    let mut decoder = FrameDecoder::new();
    let mut writer = FrameWriter::new();
    writer.push(&Message::CheckpointOffer {
        epoch: 0,
        slot_seq: 0,
        total_len: 0,
    });
    if !flush_all(&mut writer, &mut stream, SYNC_DEADLINE) {
        return FollowEnd::Retry;
    }
    let sync_deadline = Instant::now() + SYNC_DEADLINE;
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
            // A journal tail before the checkpoint finished is impossible
            // in a well-formed stream (the server ships the chunks first);
            // that, a goodbye or anything else means resync.
            Ok(_) => return FollowEnd::Retry,
            Err(e) if e.is_timeout() => continue,
            Err(_) => return FollowEnd::Retry,
        }
    };
    // The same validation and gate rule as a restart from a directory.
    let space = *store.grid().space();
    let lease_ttl = config.resilience.lease_ttl;
    let mut image = match checkpoint
        .and_then(|checkpoint| DurableImage::from_checkpoint(checkpoint, space, lease_ttl))
    {
        Ok(image) => image,
        Err(e) => return FollowEnd::Failed(format!("shipped checkpoint refused: {e}")),
    };
    {
        let mut status = shared.lock_status();
        status.phase = StandbyPhase::Following;
        status.epoch = primary_epoch;
    }
    let mut rstats = ResilienceStats::default();

    // --- Follow: fold the WAL stream, probe the primary on a timer. ---
    let mut last_probe = Instant::now();
    let mut silent_probes: u32 = 0;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            let _ = send_bye(&mut stream, ByeReason::Shutdown);
            return FollowEnd::Stopping;
        }
        match decoder.read_from(&mut stream) {
            // Frames of an older epoch come from a fenced-off primary.
            Ok(Message::WalAppend { epoch, .. }) if epoch != primary_epoch => {
                shared.lock_status().stale_rejected += 1;
            }
            Ok(Message::WalAppend {
                unit_seq,
                ts,
                unit,
                x,
                y,
                trace,
                ..
            }) => {
                let update = LocationUpdate {
                    unit: UnitId(unit),
                    new: Point::new(x, y),
                };
                let report = StampedUpdate {
                    seq: unit_seq,
                    ts,
                    update,
                };
                let spans = config.resilience.spans.as_deref();
                fold_wal(report, trace, &mut image, &mut rstats, shared, spans);
            }
            Ok(Message::Bye { .. }) => {
                // The primary said goodbye (shutdown or eviction): decide
                // between resync and promotion by probing.
                return follow_lost(config, store, shared, primary_epoch, image);
            }
            Ok(_) => {
                // Nothing else belongs on a replication stream.
                return FollowEnd::Retry;
            }
            Err(e) if e.is_timeout() => {}
            Err(_) => {
                return follow_lost(config, store, shared, primary_epoch, image);
            }
        }
        if last_probe.elapsed() >= config.probe_interval {
            last_probe = Instant::now();
            if probe_primary(config) {
                silent_probes = 0;
            } else {
                silent_probes += 1;
                if silent_probes >= config.probe_failures.max(1) {
                    return promote(config, store, shared, primary_epoch, image);
                }
            }
        }
    }
}

/// The replication connection died. One probe decides: a live primary
/// means resync, a silent one starts the promotion ladder immediately
/// (connection loss already counts as evidence).
fn follow_lost(
    config: &StandbyConfig,
    store: &Arc<dyn PlaceStore>,
    shared: &StandbyShared,
    primary_epoch: u64,
    image: DurableImage,
) -> FollowEnd {
    for _ in 0..config.probe_failures.max(1) {
        if shared.stop.load(Ordering::SeqCst) {
            return FollowEnd::Stopping;
        }
        if probe_primary(config) {
            return FollowEnd::Retry;
        }
        std::thread::sleep(config.probe_interval);
    }
    promote(config, store, shared, primary_epoch, image)
}

/// Folds one current-epoch WAL report into the image through its gate. A
/// duplicate or stale report per the gate is the journal-tail overlap or
/// a primary retransmit: dropping it keeps the fold exactly-once.
fn fold_wal(
    report: StampedUpdate,
    trace: u64,
    image: &mut DurableImage,
    rstats: &mut ResilienceStats,
    shared: &StandbyShared,
    spans: Option<&SpanSink>,
) {
    let start = now_nanos();
    if image.admit(report, rstats).is_ok() {
        shared.lock_status().wal_applied += 1;
        // The standby-apply span (gate and fold) parents onto the
        // wal-append span the primary recorded for this report — in a
        // single dump that stitches the replication hop into the causal
        // chain; across two processes each dump holds its half of the
        // trace.
        if let Some(sink) = spans.filter(|_| trace != 0) {
            sink.record_stage(trace, Stage::StandbyApply, 0, start, now_nanos(), true);
        }
    }
}

/// The promotion ladder: one final fencing probe, then the epoch bump,
/// one initialization from the followed image behind a supervised
/// pipeline, and the front-door spawn. The fencing probe is what makes
/// promotion single-writer: a primary that answers it is alive, so the
/// standby aborts and resyncs instead of forking the world.
fn promote(
    config: &StandbyConfig,
    store: &Arc<dyn PlaceStore>,
    shared: &StandbyShared,
    primary_epoch: u64,
    image: DurableImage,
) -> FollowEnd {
    shared.set_phase(StandbyPhase::Promoting);
    if probe_primary(config) {
        // Fencing probe answered: the primary lives. Never promote.
        return FollowEnd::Retry;
    }
    let new_epoch = primary_epoch.saturating_add(1);
    // The same restore a restart from a state directory ends in; the gate
    // carries the dedup and lease decisions over.
    let pipeline = match SupervisedPipeline::restore_image::<OptCtup>(
        image,
        Arc::clone(store),
        config.resilience.clone(),
        PIPELINE_CAPACITY,
        ResilienceStats::default(),
    ) {
        Ok(pipeline) => pipeline,
        Err(e) => return FollowEnd::Failed(format!("promoted restore failed: {e}")),
    };
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
    *shared.lock_promoted() = Some(server);
    {
        let mut status = shared.lock_status();
        status.phase = StandbyPhase::Promoted;
        status.epoch = new_epoch;
    }
    FollowEnd::Promoted
}

fn dial(addr: SocketAddr, config: &StandbyConfig) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_read_timeout(Some(config.net.io_tick))?;
    stream.set_write_timeout(Some(config.net.io_tick))?;
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
