//! Failover: a standby restored from a checkpoint is a fresh
//! initialization from the checkpointed unit positions — it must answer
//! exactly what the primary answers from that point on (up to ties at
//! `SK`) — and the two ways back from an engine death must survive a
//! kill matrix:
//!
//! * **Level 1** — the door notices the death even when idle and
//!   degrades; a restart from the durable slot + journal tail behind a
//!   fresh door serves the replayed top-k at once.
//! * **Level 2** — a warm standby follows the replication stream,
//!   promotes behind a fencing probe when the primary goes dark, fences
//!   stale-epoch frames, and serves the oracle-exact top-k. A primary
//!   that comes back during the dark window aborts the promotion.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup::core::algorithm::CtupAlgorithm;
use ctup::core::checkpoint::Checkpoint;
use ctup::core::config::CtupConfig;
use ctup::core::ingest::{stamp_stream, TracedReport};
use ctup::core::net::wire::{FrameDecoder, FrameWriter, Message, MAX_CHUNK_DATA};
use ctup::core::net::{
    ClientConfig, EngineSink, FailoverDialer, FeedClient, IngestServer, NetServerConfig,
    PipelineSink, ShedReason, SinkError, StandbyConfig, StandbyPhase, StandbyServer, TcpDialer,
};
use ctup::core::supervisor::{ResilienceConfig, SupervisedPipeline};
use ctup::core::types::{LocationUpdate, Place, PlaceId, Safety, TopKEntry, UnitId};
use ctup::core::{OptCtup, Oracle, QueryMode};
use ctup::mogen::{PlaceGenConfig, Workload, WorkloadParams};
use ctup::spatial::{Grid, Point};
use ctup::storage::{CellLocalStore, PlaceStore};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn setup(seed: u64) -> (Workload, Arc<dyn PlaceStore>) {
    let params = WorkloadParams {
        num_units: 30,
        places: PlaceGenConfig {
            count: 2_000,
            ..PlaceGenConfig::default()
        },
        seed,
        ..WorkloadParams::default()
    };
    let workload = Workload::generate(params);
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(8),
        workload.places_vec(),
    ));
    (workload, store)
}

/// The safeties of a result, in result order: equal for two results that
/// differ only in which places tie at `SK`.
fn safeties(result: &[TopKEntry]) -> Vec<Safety> {
    result.iter().map(|e| e.safety).collect()
}

/// Restore is init: the standby is re-derived from the checkpointed unit
/// positions, so it may hold other places tied at `SK` than the primary
/// and maintain a different set. It must answer the same query — the same
/// `SK` and result safeties, oracle-exact after every update — and it must
/// be exactly what a fresh initialization from the same positions builds.
#[test]
fn restored_monitor_is_indistinguishable_from_the_primary() {
    let (mut workload, store) = setup(71);
    let mut units = workload.unit_positions();
    let config = CtupConfig::paper_default();
    let mut primary = OptCtup::new(config.clone(), store.clone(), &units).expect("clean store");

    // Warm phase on the primary.
    for update in workload.next_updates(500) {
        primary
            .handle_update(LocationUpdate {
                unit: UnitId(update.object),
                new: update.to,
            })
            .expect("clean store");
        units[update.object as usize] = update.to;
    }

    // Checkpoint, serialize through the text codec, restore on a "standby".
    let mut buf = Vec::new();
    primary
        .checkpoint()
        .write(&mut buf)
        .expect("write checkpoint");
    let restored_cp = Checkpoint::read(buf.as_slice()).expect("read checkpoint");
    assert_eq!(restored_cp.unit_positions, units);
    let mut standby = OptCtup::restore(restored_cp, store.clone()).expect("restore checkpoint");

    assert_eq!(standby.sk(), primary.sk(), "SK differs right after restore");
    assert_eq!(
        safeties(&standby.result()),
        safeties(&primary.result()),
        "result safeties differ right after restore"
    );
    // A fresh initialization from the same positions, over its own copy of
    // the place set so the I/O window below counts only the two servers.
    let own_store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(8),
        workload.places_vec(),
    ));
    let mut fresh = OptCtup::new(config.clone(), own_store, &units).expect("clean store");
    assert_eq!(standby.result(), fresh.result());
    let oracle = Oracle::new(workload.places_vec());
    let io_before = store.stats().snapshot();

    // Both servers process the same tail of the stream: the standby stays
    // oracle-exact with the primary's SK, and in lockstep with the fresh
    // monitor, logical costs included.
    let s_before = standby.metrics().clone();
    let f_before = fresh.metrics().clone();
    for update in workload.next_updates(500) {
        let location_update = LocationUpdate {
            unit: UnitId(update.object),
            new: update.to,
        };
        units[update.object as usize] = update.to;
        primary.handle_update(location_update).expect("clean store");
        standby.handle_update(location_update).expect("clean store");
        fresh.handle_update(location_update).expect("clean store");
        oracle.assert_result_matches(
            &standby.result(),
            &units,
            config.protection_radius,
            config.mode,
        );
        assert_eq!(standby.sk(), primary.sk());
        assert_eq!(standby.result(), fresh.result());
    }
    let s_delta = standby.metrics().since(&s_before);
    let f_delta = fresh.metrics().since(&f_before);
    assert_eq!(s_delta.cells_accessed, f_delta.cells_accessed);
    assert_eq!(s_delta.places_loaded, f_delta.places_loaded);
    assert_eq!(s_delta.lb_decrements, f_delta.lb_decrements);
    assert_eq!(
        s_delta.lb_decrements_suppressed,
        f_delta.lb_decrements_suppressed
    );
    assert_eq!(s_delta.result_changes, f_delta.result_changes);
    standby.check_lb_invariant();

    let io = store.stats().snapshot().since(&io_before);
    // The window opens after restore, so only the continued monitoring of
    // the two servers reads cells.
    assert!(
        io.records_read < 2 * 500 * 40,
        "continued monitoring caused excessive lower-level traffic: {io:?}"
    );
}

/// Restore depends only on the store it runs over: a checkpoint restored
/// over another place set, or over the same places on a 20×20 grid, is
/// oracle-exact for that store over the tail that follows.
#[test]
fn restore_rederives_over_any_store() {
    let (mut workload, store) = setup(71);
    let mut units = workload.unit_positions();
    let config = CtupConfig::paper_default();
    let mut primary = OptCtup::new(config.clone(), store, &units).expect("clean store");
    for update in workload.next_updates(300) {
        primary
            .handle_update(LocationUpdate {
                unit: UnitId(update.object),
                new: update.to,
            })
            .expect("clean store");
        units[update.object as usize] = update.to;
    }
    let checkpoint = primary.checkpoint();
    let (other_workload, other) = setup(72);
    let fine: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(20),
        workload.places_vec(),
    ));
    let tail: Vec<LocationUpdate> = workload
        .next_updates(300)
        .into_iter()
        .map(|u| LocationUpdate {
            unit: UnitId(u.object),
            new: u.to,
        })
        .collect();
    for (store, places) in [
        (other, other_workload.places_vec()),
        (fine, workload.places_vec()),
    ] {
        let oracle = Oracle::new(places);
        let mut units = units.clone();
        let mut standby = OptCtup::restore(checkpoint.clone(), store).expect("restore");
        oracle.assert_result_matches(
            &standby.result(),
            &units,
            config.protection_radius,
            config.mode,
        );
        for &update in &tail {
            standby.handle_update(update).expect("clean store");
            units[update.unit.0 as usize] = update.new;
            oracle.assert_result_matches(
                &standby.result(),
                &units,
                config.protection_radius,
                config.mode,
            );
        }
        standby.check_lb_invariant();
    }
}

#[test]
fn checkpoint_roundtrips_with_extents_and_threshold_mode() {
    let params = WorkloadParams {
        num_units: 10,
        places: PlaceGenConfig {
            count: 500,
            extent_prob: 0.3,
            extent_max_side: 0.03,
            ..PlaceGenConfig::default()
        },
        seed: 72,
        ..WorkloadParams::default()
    };
    let mut workload = Workload::generate(params);
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(6),
        workload.places_vec(),
    ));
    let units = workload.unit_positions();
    let config = CtupConfig {
        mode: ctup::core::QueryMode::Threshold(-2),
        ..CtupConfig::paper_default()
    };
    let mut primary = OptCtup::new(config, store.clone(), &units).expect("clean store");
    for update in workload.next_updates(200) {
        primary
            .handle_update(LocationUpdate {
                unit: UnitId(update.object),
                new: update.to,
            })
            .expect("clean store");
    }
    let mut buf = Vec::new();
    primary.checkpoint().write(&mut buf).unwrap();
    let mut standby = OptCtup::restore(Checkpoint::read(buf.as_slice()).unwrap(), store)
        .expect("restore checkpoint");
    assert_eq!(standby.result(), primary.result());
    for update in workload.next_updates(200) {
        let location_update = LocationUpdate {
            unit: UnitId(update.object),
            new: update.to,
        };
        primary.handle_update(location_update).expect("clean store");
        standby.handle_update(location_update).expect("clean store");
        assert_eq!(standby.result(), primary.result());
    }
}

// ---------------------------------------------------------------------
// Two-level recovery kill matrix.
// ---------------------------------------------------------------------

const RADIUS: f64 = 0.1;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ctup-failover-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn clean_stream(workload: &mut Workload, n: usize) -> Vec<LocationUpdate> {
    workload
        .next_updates(n)
        .into_iter()
        .map(|u| LocationUpdate {
            unit: UnitId(u.object),
            new: u.to,
        })
        .collect()
}

/// A durable pipeline sink pair for the primary front door.
fn durable_sink(
    store: &Arc<dyn PlaceStore>,
    units: &[ctup::spatial::Point],
    resilience: ResilienceConfig,
) -> Arc<dyn EngineSink> {
    let monitor = OptCtup::new(CtupConfig::with_k(10), store.clone(), units).expect("clean store");
    let initial = monitor.result();
    let pipeline = SupervisedPipeline::spawn(monitor, resilience, 4096);
    Arc::new(PipelineSink::new(pipeline, initial))
}

/// Reserves a loopback address by binding and immediately dropping a
/// listener; the port is then free for the promoted server to claim.
fn reserve_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    listener.local_addr().expect("reserved addr")
}

/// Waits for the standby's `wal_applied` counter to stop moving (no feed
/// is active, so in-flight replication frames drain within milliseconds)
/// and returns its settled value.
fn settled_wal_applied(standby: &StandbyServer) -> u64 {
    let mut last = standby.status().wal_applied;
    let mut stable_since = Instant::now();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = standby.status().wal_applied;
        if now != last {
            last = now;
            stable_since = Instant::now();
        } else if stable_since.elapsed() >= Duration::from_millis(250) {
            return last;
        }
        assert!(
            Instant::now() < deadline,
            "wal_applied never settled (last {last})"
        );
    }
}

/// Acks are durable-gated: a report is acked once journaled, which can be
/// *before* the engine applied it and before the watchdog's periodic
/// last-good refresh observed the result. Polls a top-k reader until its
/// value holds still, returning the settled result.
fn settled_topk(read: impl Fn() -> Vec<TopKEntry>) -> Vec<TopKEntry> {
    let mut last = read();
    let mut stable_since = Instant::now();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = read();
        if now != last {
            last = now;
            stable_since = Instant::now();
        } else if stable_since.elapsed() >= Duration::from_millis(300) {
            return last;
        }
        assert!(Instant::now() < deadline, "top-k never settled");
    }
}

/// Polls `probe` until it returns true or the deadline passes.
fn wait_for(what: &str, deadline: Duration, mut probe: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !probe() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A hand-built world whose journal tail is *known* to change the top-k,
/// whatever the generator's stream: six places on a line with required
/// protections 1, 2, 3, 5, 7, 9 and four units parked far from all of
/// them, so the top-3 starts as p5(-9), p4(-7), p3(-5). Reports 0..=7 and
/// 11..=14 only jiggle unit 3 in an empty corner; reports 8, 9, 10 move
/// units 0, 1, 2 onto p5, lifting it to -6: p4(-7), p5(-6), p3(-5).
fn tail_changes_topk_world() -> (Arc<dyn PlaceStore>, Vec<Point>, Vec<LocationUpdate>) {
    let rps = [1u32, 2, 3, 5, 7, 9];
    let places: Vec<Place> = (0u32..)
        .zip(rps)
        .map(|(i, rp)| {
            let pos = Point::new(0.1 + 0.15 * f64::from(i), 0.5);
            Place::point(PlaceId(i), pos, rp)
        })
        .collect();
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(Grid::unit_square(4), places));
    let units: Vec<Point> = (0u32..4)
        .map(|i| Point::new(0.05 + 0.02 * f64::from(i), 0.05))
        .collect();
    let jiggle = |i: u32| LocationUpdate {
        unit: UnitId(3),
        new: Point::new(0.9, 0.05 + 0.002 * f64::from(i)),
    };
    let onto_p5 = |unit: u32| LocationUpdate {
        unit: UnitId(unit),
        new: Point::new(0.85, 0.5 + 0.01 * f64::from(unit)),
    };
    let mut stream: Vec<LocationUpdate> = (0..8).map(jiggle).collect();
    stream.extend((0..3).map(onto_p5));
    stream.extend((11..15).map(jiggle));
    (store, units, stream)
}

/// Level 1, what the restarted engine *serves*: the worker checkpoints
/// after report 7 and is killed at report 13 behind a door, so the journal
/// tail a restart replays (8..=13, and 14 if it was journaled in the
/// kill's commit group) holds exactly the three moves that change the
/// top-k — and the replay emits no events. A sink seeded from the
/// checkpoint would keep serving p5 at -9 until some later report happened
/// to touch it; seeded from the replayed engine, `last_good_topk()` of the
/// fresh door is oracle-exact before any report is sent. `io_tick` is two
/// seconds, so the report sent after the restart can only be acked inside
/// 500 ms if the restarted sink got the durable hook.
#[test]
fn engine_death_then_restart_from_dir_serves_the_replayed_topk_and_acks_without_a_tick() {
    let (store, units, stream) = tail_changes_topk_world();
    let dir = temp_dir("restart-tail");
    let resilience = ResilienceConfig {
        checkpoint_every: 8,
        state_dir: Some(dir.clone()),
        kill_at: Some(13),
        ..ResilienceConfig::default()
    };
    let monitor = OptCtup::new(CtupConfig::with_k(3), store.clone(), &units).expect("clean store");
    let pipeline = SupervisedPipeline::spawn(monitor, resilience.clone(), 4096);
    let sink: Arc<dyn EngineSink> = Arc::new(PipelineSink::from_pipeline(pipeline));
    let mut cfg = NetServerConfig {
        io_tick: Duration::from_secs(2),
        ..NetServerConfig::default()
    };
    cfg.admission.ingest_deadline = Duration::from_secs(30);
    let server = IngestServer::spawn("127.0.0.1:0", cfg.clone(), sink).unwrap();
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(server.local_addr())),
        ClientConfig::default(),
    );
    for report in stamp_stream(stream.iter().copied()) {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(30)).expect("clean links");
    client.finish();
    wait_for("the engine death", Duration::from_secs(15), || {
        server.degraded()
    });
    server.shutdown();

    let pipeline = SupervisedPipeline::recover_from_dir::<OptCtup>(
        &dir,
        store.clone(),
        ResilienceConfig {
            kill_at: None,
            ..resilience
        },
        4096,
    )
    .expect("recover from the directory");
    let sink: Arc<dyn EngineSink> = Arc::new(PipelineSink::from_pipeline(pipeline));
    let server = IngestServer::spawn("127.0.0.1:0", cfg, sink).unwrap();

    let mut positions = units.clone();
    for update in &stream {
        positions[update.unit.index()] = update.new;
    }
    let topk = server.last_good_topk();
    assert_eq!(
        topk.iter()
            .map(|e| (e.place.0, e.safety))
            .collect::<Vec<_>>(),
        vec![(4, -7), (5, -6), (3, -5)],
        "served top-k is stale after the restart"
    );
    let oracle = Oracle::from_store(store.as_ref()).expect("clean store");
    oracle.assert_result_matches(&topk, &positions, RADIUS, QueryMode::TopK(3));

    // The restarted sink announces too: one report on the idle door is
    // acked long before the two-second tick.
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(server.local_addr())),
        ClientConfig::default(),
    );
    let mut extra = stamp_stream(stream.iter().copied().chain([LocationUpdate {
        unit: UnitId(3),
        new: Point::new(0.9, 0.1),
    }]));
    client.enqueue(extra.pop().expect("one more report"));
    let sent = Instant::now();
    client.drive(Duration::from_secs(10)).expect("clean links");
    let took = sent.elapsed();
    assert_eq!(client.finish().acked, 1);
    assert!(
        took < Duration::from_millis(500),
        "ack after the restart took {took:?}: the restarted sink has no hook"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Level 1 when the kill hits the *last* report of the feed: that report
/// is journaled and acked before the apply it never gets, so nothing is
/// left in flight and no further report comes along to fail a hand-off.
/// Only the pump's idle `EngineSink::dead()` probe can notice the dead
/// engine, and it must degrade the door — otherwise the door claims
/// health over a top-k without an acked report for as long as it stays
/// idle. The way back is a restart from the directory behind a fresh
/// door; the last report is the third move onto p5, so the stale top-k
/// and the revived one differ.
#[test]
fn level_one_revival_after_a_kill_on_the_last_report() {
    let (store, units, stream) = tail_changes_topk_world();
    let stream = &stream[..11];
    let dir = temp_dir("revive-last");
    let resilience = ResilienceConfig {
        checkpoint_every: 8,
        state_dir: Some(dir.clone()),
        kill_at: Some(10),
        ..ResilienceConfig::default()
    };
    let monitor = OptCtup::new(CtupConfig::with_k(3), store.clone(), &units).expect("clean store");
    let pipeline = SupervisedPipeline::spawn(monitor, resilience.clone(), 4096);
    let sink: Arc<dyn EngineSink> = Arc::new(PipelineSink::from_pipeline(pipeline));
    let mut cfg = NetServerConfig::default();
    cfg.admission.ingest_deadline = Duration::from_secs(30);
    let server = IngestServer::spawn("127.0.0.1:0", cfg.clone(), sink).unwrap();
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(server.local_addr())),
        ClientConfig::default(),
    );
    for report in stamp_stream(stream.iter().copied()) {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(30)).expect("clean links");
    let fed = client.finish();
    assert_eq!(fed.acked, 11, "every report is journaled: {fed:?}");
    assert!(fed.sheds.is_empty(), "nothing is shed: {fed:?}");
    // No report follows: only the idle probe can notice the death.
    wait_for("the engine death", Duration::from_secs(15), || {
        server.degraded()
    });
    let net = server.shutdown();
    assert!(net.degraded, "engine death is sticky: {net:?}");
    assert_eq!(net.reports_accepted, 11, "{net:?}");

    let pipeline = SupervisedPipeline::recover_from_dir::<OptCtup>(
        &dir,
        store.clone(),
        ResilienceConfig {
            kill_at: None,
            ..resilience
        },
        4096,
    )
    .expect("recover from the directory");
    let sink: Arc<dyn EngineSink> = Arc::new(PipelineSink::from_pipeline(pipeline));
    let server = IngestServer::spawn("127.0.0.1:0", cfg, sink).unwrap();
    assert!(!server.degraded(), "the revived door starts healthy");

    let mut positions = units.clone();
    for update in stream {
        positions[update.unit.index()] = update.new;
    }
    let topk = server.last_good_topk();
    assert_eq!(
        topk.iter()
            .map(|e| (e.place.0, e.safety))
            .collect::<Vec<_>>(),
        vec![(4, -7), (5, -6), (3, -5)],
        "served top-k misses the last acked report"
    );
    let oracle = Oracle::from_store(store.as_ref()).expect("clean store");
    oracle.assert_result_matches(&topk, &positions, RADIUS, QueryMode::TopK(3));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Accepts every hand-off but takes durable ownership of only the first
/// 100; once 200 were handed it reports itself dead — so the death is
/// observable only through the probe, never through a failing
/// `try_ingest`.
struct SilentlyDyingSink {
    handed: AtomicU64,
}

impl EngineSink for SilentlyDyingSink {
    fn try_ingest(&self, _report: TracedReport) -> Result<(), SinkError> {
        self.handed.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
    fn topk(&self) -> Vec<TopKEntry> {
        Vec::new()
    }
    fn durable_mark(&self) -> u64 {
        self.handed.load(Ordering::SeqCst).min(100)
    }
    fn dead(&self) -> bool {
        self.handed.load(Ordering::SeqCst) >= 200
    }
}

/// The restarted engine: durable at once, never dies.
struct HealthySink {
    handed: AtomicU64,
}

impl EngineSink for HealthySink {
    fn try_ingest(&self, _report: TracedReport) -> Result<(), SinkError> {
        self.handed.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
    fn topk(&self) -> Vec<TopKEntry> {
        Vec::new()
    }
    fn durable_mark(&self) -> u64 {
        self.handed.load(Ordering::SeqCst)
    }
}

/// The engine can die *after* the admission queue has drained — with no
/// further hand-off to fail, only the pump's idle probe can notice. It
/// must degrade the door and shed the unacked tail with `EngineDegraded`,
/// so nothing hangs until the client gives up; re-sent to a restarted
/// door, that tail is acked and no report is lost.
#[test]
fn silent_engine_death_after_queue_drain_is_probed_and_healed() {
    let sink: Arc<dyn EngineSink> = Arc::new(SilentlyDyingSink {
        handed: AtomicU64::new(0),
    });
    let mut cfg = NetServerConfig::default();
    cfg.admission.ingest_deadline = Duration::from_secs(30);
    let server = IngestServer::spawn("127.0.0.1:0", cfg.clone(), sink).unwrap();

    let (mut workload, _store) = setup(80);
    let stamped = stamp_stream(clean_stream(&mut workload, 200));
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(server.local_addr())),
        ClientConfig::default(),
    );
    for &report in &stamped {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(30)).expect("clean links");
    let fed = client.finish();
    assert_eq!(
        fed.acked + fed.shed_total(),
        200,
        "every report must become terminal: {fed:?}"
    );
    assert!(
        fed.sheds
            .iter()
            .all(|s| s.reason == ShedReason::EngineDegraded),
        "only the dead engine's tail may be shed: {fed:?}"
    );
    assert!(
        fed.shed_total() > 0,
        "the never-durable tail is shed: {fed:?}"
    );
    // No report follows: only the idle probe can notice the death.
    wait_for("the engine death", Duration::from_secs(15), || {
        server.degraded()
    });
    let net = server.shutdown();
    assert!(net.degraded, "engine death is sticky: {net:?}");
    assert_eq!(net.reports_accepted, fed.acked, "{net:?}");

    let server = IngestServer::spawn(
        "127.0.0.1:0",
        cfg,
        Arc::new(HealthySink {
            handed: AtomicU64::new(0),
        }),
    )
    .unwrap();
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(server.local_addr())),
        ClientConfig::default(),
    );
    for shed in &fed.sheds {
        let index = usize::try_from(shed.seq - 1).expect("fits");
        client.enqueue(stamped[index]);
    }
    client.drive(Duration::from_secs(30)).expect("clean links");
    let healed = client.finish();
    assert_eq!(
        fed.acked + healed.acked,
        200,
        "the restarted door must ack the shed tail: {healed:?}"
    );
    assert!(healed.sheds.is_empty(), "no report may be shed: {healed:?}");
    let net = server.shutdown();
    assert!(!net.degraded, "the restarted door stays healthy: {net:?}");
}

/// Level 2, mid-batch kill: the primary dies with the client's feed still
/// in flight. The standby promotes at epoch + 1 behind the fencing probe,
/// the client walks over via its failover address list, and the promoted
/// server finishes the feed — zero acked-report loss, oracle-exact.
#[test]
fn standby_promotes_after_primary_death_and_serves_the_oracle_topk() {
    let (mut workload, store) = setup(82);
    let units = workload.unit_positions();
    let clean = clean_stream(&mut workload, 600);
    let stamped = stamp_stream(clean.clone());
    let dir_primary = temp_dir("promote-primary");
    let dir_standby = temp_dir("promote-standby");

    let resilience = ResilienceConfig {
        checkpoint_every: 32,
        state_dir: Some(dir_primary.clone()),
        ..ResilienceConfig::default()
    };
    let sink = durable_sink(&store, &units, resilience);
    let cfg = NetServerConfig {
        state_dir: Some(dir_primary.clone()),
        epoch: 1,
        ..NetServerConfig::default()
    };
    let primary = IngestServer::spawn("127.0.0.1:0", cfg, sink).unwrap();
    let primary_addr = primary.local_addr();

    let standby_addr = reserve_addr();
    let standby = StandbyServer::spawn::<OptCtup>(
        StandbyConfig {
            primary_ingest: primary_addr,
            serve_addr: standby_addr.to_string(),
            resilience: ResilienceConfig {
                state_dir: Some(dir_standby.clone()),
                ..ResilienceConfig::default()
            },
            probe_interval: Duration::from_millis(50),
            probe_failures: 2,
            ..StandbyConfig::default()
        },
        store.clone(),
    );

    // Phase 1a: a priming batch makes the primary's durable state real so
    // the standby's checkpoint sync can complete. Every report is acked
    // (= durable) before the standby bootstraps, so the checkpoint plus
    // journal covers the batch exactly.
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(primary_addr)),
        ClientConfig::default(),
    );
    for &report in &stamped[..64] {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(30)).expect("clean links");
    assert_eq!(client.finish().acked, 64);
    wait_for("checkpoint sync", Duration::from_secs(10), || {
        standby.status().phase == StandbyPhase::Following
    });
    assert_eq!(standby.status().epoch, 1);
    // The sync may have landed mid-priming, in which case part of the
    // priming batch arrives as journal or live frames and counts toward
    // `wal_applied`. Let the counter settle before taking the baseline.
    let base = settled_wal_applied(&standby);

    // Phase 1b: the rest of the pre-kill feed arrives over the live WAL
    // tail; each frame is fresh (not in the shipped checkpoint), so
    // `wal_applied` counts it on top of the baseline.
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(primary_addr)),
        ClientConfig::default(),
    );
    for &report in &stamped[64..300] {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(30)).expect("clean links");
    assert_eq!(client.finish().acked, 236);
    wait_for("live WAL tail", Duration::from_secs(10), || {
        standby.status().wal_applied >= base + 236
    });

    // Kill the primary. The standby's probes go dark and it promotes.
    let net = primary.shutdown();
    assert_eq!(net.reports_accepted, 300);
    wait_for("promotion", Duration::from_secs(10), || {
        standby.status().phase == StandbyPhase::Promoted
    });
    let status = standby.status();
    assert_eq!(status.epoch, 2, "promotion must bump the fencing epoch");
    let promoted = standby.promoted_addr().expect("promoted front door");
    assert_eq!(promoted, standby_addr);
    let health = standby.promoted_health().expect("promoted health");
    assert!(
        health.contains("\"failovers\":1") && health.contains("\"epoch\":2"),
        "promoted health must report the failover: {health}"
    );

    // Phase 2: the rest of the feed walks over to the promoted server.
    let mut client = FeedClient::new(
        Box::new(FailoverDialer::new(vec![primary_addr, standby_addr])),
        ClientConfig::default(),
    );
    for &report in &stamped[300..] {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(30)).expect("walk-over");
    let stats = client.finish();
    assert_eq!(
        stats.acked, 300,
        "the promoted server must accept the tail: {stats:?}"
    );

    let topk = settled_topk(|| standby.promoted_topk().expect("promoted top-k"));
    let mut positions = units.clone();
    for update in &clean {
        positions[update.unit.index()] = update.new;
    }
    let oracle = Oracle::from_store(store.as_ref()).expect("clean store");
    oracle.assert_result_matches(&topk, &positions, RADIUS, QueryMode::TopK(10));

    standby.shutdown();
    std::fs::remove_dir_all(&dir_primary).ok();
    std::fs::remove_dir_all(&dir_standby).ok();
}

/// Kill before/during checkpoint ship: a standby that never completed a
/// sync has nothing correct to serve, so it must keep retrying — never
/// promote, never fail into serving garbage.
#[test]
fn standby_never_promotes_without_a_synced_checkpoint() {
    let (_workload, store) = setup(83);
    let dead = reserve_addr();
    let standby = StandbyServer::spawn::<OptCtup>(
        StandbyConfig {
            primary_ingest: dead,
            serve_addr: "127.0.0.1:0".to_string(),
            probe_interval: Duration::from_millis(25),
            probe_failures: 1,
            resync_delay: Duration::from_millis(20),
            connect_timeout: Duration::from_millis(100),
            ..StandbyConfig::default()
        },
        store,
    );
    std::thread::sleep(Duration::from_millis(600));
    let status = standby.status();
    assert_eq!(
        status.phase,
        StandbyPhase::Syncing,
        "an unsynced standby must keep retrying"
    );
    assert!(standby.promoted_addr().is_none());
    standby.shutdown();
}

/// Kill mid-promotion window: the primary drops its connections but comes
/// back before the standby's probe budget runs out. The fencing probe
/// answers, so the standby aborts the promotion and resyncs — no dual
/// primary.
#[test]
fn revived_primary_aborts_promotion_via_the_fencing_probe() {
    let (mut workload, store) = setup(84);
    let units = workload.unit_positions();
    let clean = clean_stream(&mut workload, 200);
    let stamped = stamp_stream(clean);
    let dir = temp_dir("fence");

    let resilience = ResilienceConfig {
        checkpoint_every: 32,
        state_dir: Some(dir.clone()),
        ..ResilienceConfig::default()
    };
    let sink = durable_sink(&store, &units, resilience.clone());
    let cfg = NetServerConfig {
        state_dir: Some(dir.clone()),
        ..NetServerConfig::default()
    };
    let primary = IngestServer::spawn("127.0.0.1:0", cfg.clone(), sink).unwrap();
    let primary_addr = primary.local_addr();

    // The whole feed is durable before the standby bootstraps, so its
    // first checkpoint sync carries everything and it settles into
    // Following with nothing left to tail.
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(primary_addr)),
        ClientConfig::default(),
    );
    for &report in &stamped {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(30)).expect("clean links");
    assert_eq!(client.finish().acked, 200);

    let standby = StandbyServer::spawn::<OptCtup>(
        StandbyConfig {
            primary_ingest: primary_addr,
            serve_addr: "127.0.0.1:0".to_string(),
            probe_interval: Duration::from_millis(300),
            probe_failures: 3,
            ..StandbyConfig::default()
        },
        store.clone(),
    );
    wait_for("checkpoint sync", Duration::from_secs(10), || {
        standby.status().phase == StandbyPhase::Following
    });

    // Bounce the primary: down just long enough to lose the replication
    // connection, back up before three 300 ms probes all go dark.
    primary.shutdown();
    let replacement = {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let sink = SupervisedPipeline::recover_from_dir::<OptCtup>(
                &dir,
                store.clone(),
                ResilienceConfig {
                    state_dir: Some(dir.clone()),
                    ..ResilienceConfig::default()
                },
                4096,
            )
            .map(|pipeline| {
                Arc::new(PipelineSink::new(pipeline, Vec::new())) as Arc<dyn EngineSink>
            })
            .expect("recover replacement");
            match IngestServer::spawn(&primary_addr.to_string(), cfg.clone(), sink) {
                Ok(server) => break server,
                Err(e) => {
                    assert!(Instant::now() < deadline, "rebind failed for 5s: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    };

    // Give the standby a full probe cycle plus slack: it must observe the
    // loss, probe, find the primary alive, and go back to following.
    std::thread::sleep(Duration::from_millis(1_500));
    let status = standby.status();
    assert_ne!(
        status.phase,
        StandbyPhase::Promoted,
        "a live primary must fence the promotion: {status:?}"
    );
    assert_eq!(status.epoch, 1, "no epoch bump without promotion");
    assert!(standby.promoted_addr().is_none());

    standby.shutdown();
    replacement.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Epoch fencing on the replication stream itself: frames stamped with a
/// stale epoch are rejected and counted; only current-epoch frames are
/// applied. Driven by a hand-rolled fake primary speaking the wire
/// protocol.
#[test]
fn stale_epoch_wal_frames_are_rejected_by_the_standby() {
    let (workload, store) = setup(85);
    let units = workload.unit_positions();
    let monitor = OptCtup::new(CtupConfig::with_k(10), store.clone(), &units).expect("clean store");
    let mut body = Vec::new();
    monitor.checkpoint().write(&mut body).expect("checkpoint");

    let listener = TcpListener::bind("127.0.0.1:0").expect("fake primary");
    let addr = listener.local_addr().expect("addr");
    const EPOCH: u64 = 5;
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("standby dials");
        stream
            .set_read_timeout(Some(Duration::from_millis(25)))
            .expect("timeout");
        let mut decoder = FrameDecoder::new();
        // The subscribe frame.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match decoder.read_from(&mut stream) {
                Ok(Message::CheckpointOffer { .. }) => break,
                Ok(other) => panic!("expected subscribe, got {other:?}"),
                Err(e) if e.is_timeout() => {
                    assert!(Instant::now() < deadline, "no subscribe frame");
                }
                Err(e) => panic!("read error: {e:?}"),
            }
        }
        let mut writer = FrameWriter::new();
        writer.push(&Message::CheckpointOffer {
            epoch: EPOCH,
            slot_seq: 0,
            total_len: u64::try_from(body.len()).expect("length fits"),
        });
        let mut offset = 0usize;
        while offset < body.len() {
            let end = (offset + MAX_CHUNK_DATA).min(body.len());
            writer.push(&Message::CheckpointChunk {
                epoch: EPOCH,
                offset: u64::try_from(offset).expect("offset fits"),
                data: body[offset..end].to_vec(),
            });
            offset = end;
        }
        // Three stale frames from "the previous epoch", two current ones.
        for (epoch, unit, unit_seq) in [
            (EPOCH - 1, 0u32, 7u64),
            (EPOCH - 1, 1, 7),
            (EPOCH - 1, 2, 7),
            (EPOCH, 0, 1),
            (EPOCH, 1, 1),
        ] {
            writer.push(&Message::WalAppend {
                epoch,
                unit_seq,
                ts: unit_seq,
                unit,
                x: 0.5,
                y: 0.5,
                trace: 0,
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            assert!(Instant::now() < deadline, "standby never hung up");
            match writer.flush_into(&mut stream) {
                Ok(true) => {}
                Ok(false) => continue,
                Err(_) => return, // standby closed — done
            }
            // Hold the connection open until the standby says goodbye.
            match decoder.read_from(&mut stream) {
                Ok(Message::Bye { .. }) => return,
                Ok(_) => {}
                Err(e) if e.is_timeout() => {}
                Err(_) => return,
            }
        }
    });

    let standby = StandbyServer::spawn::<OptCtup>(
        StandbyConfig {
            primary_ingest: addr,
            serve_addr: "127.0.0.1:0".to_string(),
            // No probes during the scripted exchange.
            probe_interval: Duration::from_secs(30),
            probe_failures: 100,
            ..StandbyConfig::default()
        },
        store,
    );
    wait_for("the scripted frames", Duration::from_secs(10), || {
        let status = standby.status();
        status.wal_applied >= 2 && status.stale_rejected >= 3
    });
    let status = standby.status();
    assert_eq!(status.phase, StandbyPhase::Following);
    assert_eq!(status.epoch, EPOCH);
    assert_eq!(status.wal_applied, 2, "both current-epoch frames apply");
    assert_eq!(status.stale_rejected, 3, "all stale frames bounce");
    standby.shutdown();
    fake.join().expect("fake primary exits cleanly");
}

/// Trace ids survive standby replication and the promotion epoch bump:
/// every live WAL frame carries its report's trace id, the standby's
/// standby-apply spans adopt those ids unchanged, and a promoted server
/// forces 1-in-1 head sampling so the failover window is fully traced
/// even for clients that never stamped an id.
#[test]
fn trace_ids_survive_standby_promotion_across_the_epoch_bump() {
    use ctup::obs::{sample_trace, SpanSink, Stage};
    use std::collections::BTreeSet;

    let (mut workload, store) = setup(86);
    let units = workload.unit_positions();
    let clean = clean_stream(&mut workload, 300);
    let stamped = stamp_stream(clean);
    let dir_primary = temp_dir("trace-primary");
    let dir_standby = temp_dir("trace-standby");

    let resilience = ResilienceConfig {
        checkpoint_every: 32,
        state_dir: Some(dir_primary.clone()),
        ..ResilienceConfig::default()
    };
    let sink = durable_sink(&store, &units, resilience);
    let cfg = NetServerConfig {
        state_dir: Some(dir_primary.clone()),
        epoch: 1,
        ..NetServerConfig::default()
    };
    let primary = IngestServer::spawn("127.0.0.1:0", cfg, sink).unwrap();
    let primary_addr = primary.local_addr();

    // The standby's halves of the traces — standby-apply while following,
    // the full pipeline once promoted — land in this one sink.
    let standby_spans = Arc::new(SpanSink::new(65_536));
    let standby_addr = reserve_addr();
    let standby = StandbyServer::spawn::<OptCtup>(
        StandbyConfig {
            primary_ingest: primary_addr,
            serve_addr: standby_addr.to_string(),
            net: NetServerConfig {
                spans: Some(standby_spans.clone()),
                // Deliberately 0: promotion must force always-sample.
                trace_sample_every: 0,
                ..NetServerConfig::default()
            },
            resilience: ResilienceConfig {
                state_dir: Some(dir_standby.clone()),
                spans: Some(standby_spans.clone()),
                ..ResilienceConfig::default()
            },
            probe_interval: Duration::from_millis(50),
            probe_failures: 2,
            ..StandbyConfig::default()
        },
        store.clone(),
    );

    // Priming batch, deliberately untraced: it only makes the primary's
    // durable state real so the standby's checkpoint sync completes.
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(primary_addr)),
        ClientConfig::default(),
    );
    for &report in &stamped[..64] {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(30)).expect("clean links");
    assert_eq!(client.finish().acked, 64);
    wait_for("checkpoint sync", Duration::from_secs(10), || {
        standby.status().phase == StandbyPhase::Following
    });
    let base = settled_wal_applied(&standby);

    // Traced live tail: these ship to the standby as WalAppend frames
    // carrying the client-minted trace ids.
    let trace_seed = 0xBB;
    let client_spans = Arc::new(SpanSink::new(4_096));
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(primary_addr)),
        ClientConfig {
            spans: Some(client_spans.clone()),
            trace_sample_every: 1,
            trace_seed,
            ..ClientConfig::default()
        },
    );
    for &report in &stamped[64..164] {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(30)).expect("clean links");
    assert_eq!(client.finish().acked, 100);
    wait_for("live WAL tail", Duration::from_secs(10), || {
        standby.status().wal_applied >= base + 100
    });

    // While still on epoch 1, the standby recorded one standby-apply span
    // per traced frame — under the client's ids, not re-minted ones.
    let applied: BTreeSet<u64> = standby_spans
        .snapshot()
        .spans
        .iter()
        .filter(|s| s.stage == Stage::StandbyApply)
        .map(|s| s.trace)
        .collect();
    for seq in 1..=100u64 {
        let trace = sample_trace(trace_seed, seq, 1);
        assert!(
            applied.contains(&trace),
            "standby-apply span missing for live-tail seq {seq}"
        );
    }

    // Kill the primary: the promotion bumps the fencing epoch but the
    // sink — and every pre-promotion span in it — survives untouched.
    let net = primary.shutdown();
    assert_eq!(net.reports_accepted, 164);
    wait_for("promotion", Duration::from_secs(10), || {
        standby.status().phase == StandbyPhase::Promoted
    });
    assert_eq!(standby.status().epoch, 2, "promotion must bump the epoch");
    let snap = standby_spans.snapshot();
    assert!(
        snap.spans
            .iter()
            .any(|s| s.stage == Stage::StandbyApply && applied.contains(&s.trace)),
        "pre-promotion spans must survive the epoch bump"
    );
    assert!(
        !snap.spans.iter().any(|s| s.stage == Stage::SessionAdmit),
        "no front-door spans can exist before the door opens"
    );

    // An *untraced* client feeding the promoted server still gets traced
    // end to end: promotion forces 1-in-1 head sampling, because a
    // failover window is exactly when operators need exemplar traces.
    let mut client = FeedClient::new(
        Box::new(FailoverDialer::new(vec![primary_addr, standby_addr])),
        ClientConfig::default(),
    );
    for &report in &stamped[164..300] {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(30)).expect("walk-over");
    assert_eq!(client.finish().acked, 136);
    let snap = standby_spans.snapshot();
    assert!(
        snap.spans.iter().any(|s| s.stage == Stage::SessionAdmit),
        "promotion must force head sampling of untraced reports"
    );

    standby.shutdown();
    std::fs::remove_dir_all(&dir_primary).ok();
    std::fs::remove_dir_all(&dir_standby).ok();
}
