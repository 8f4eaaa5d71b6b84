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
use ctup::core::ingest::{stamp_stream, GateState, GateUnitState, StampedUpdate, TracedReport};
use ctup::core::net::wire::{FrameDecoder, FrameWriter, Message, MAX_CHUNK_DATA};
use ctup::core::net::{
    ClientConfig, ClientStats, Dialer, EngineSink, FeedClient, IngestServer, NetServerConfig,
    NetStatsSnapshot, PipelineSink, ShedReason, SinkError, StandbyConfig, StandbyPhase,
    StandbyServer, TcpDialer,
};
use ctup::core::supervisor::{ResilienceConfig, SupervisedPipeline};
use ctup::core::types::{LocationUpdate, Place, PlaceId, Safety, TopKEntry, UnitId};
use ctup::core::{DurableState, OptCtup, Oracle, QueryMode};
use ctup::mogen::{PlaceGenConfig, Workload, WorkloadParams};
use ctup::obs::SpanSink;
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

/// Reserves a loopback address by binding and immediately dropping a
/// listener; the port is then free for the promoted server to claim.
fn reserve_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    listener.local_addr().expect("reserved addr")
}

/// Polls `read` until its value has held still for 300 ms, and returns
/// it. Replication frames in flight drain within milliseconds once no
/// feed is active; acks are durable-gated, so a report can be acked
/// before the engine applied it and before the watchdog's periodic
/// last-good refresh observed the result.
fn settled<T: PartialEq + std::fmt::Debug>(read: impl Fn() -> T) -> T {
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
        assert!(Instant::now() < deadline, "never settled (last {last:?})");
    }
}

/// Feeds `reports` through a fresh client over `dialer` until each one is
/// terminal, and returns the client's tally.
fn feed(
    dialer: impl Dialer + 'static,
    config: ClientConfig,
    reports: &[StampedUpdate],
) -> ClientStats {
    let mut client = FeedClient::new(Box::new(dialer), config);
    for &report in reports {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(30)).expect("clean links");
    client.finish()
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
    let cfg = NetServerConfig {
        io_tick: Duration::from_secs(2),
        ..NetServerConfig::default()
    };
    let (_, _, server, dir) = kill_then_restart("restart-tail", 15, 13, cfg);

    // The restarted sink announces too: one report on the idle door is
    // acked long before the two-second tick.
    let (_, _, stream) = tail_changes_topk_world();
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

/// Level 1 over the first `reports` reports of `tail_changes_topk_world`:
/// a door whose engine `kill_at` stops, fed until it degrades, then a
/// restart from the directory behind a fresh door with `cfg`. The
/// restarted door must serve p4(-7), p5(-6), p3(-5), oracle-exact over
/// every fed report, before any further report. Returns the client's
/// tally, the dead door's last counters, the restarted door and the
/// state directory.
fn kill_then_restart(
    tag: &str,
    reports: usize,
    kill_at: u64,
    mut cfg: NetServerConfig,
) -> (ClientStats, NetStatsSnapshot, IngestServer, PathBuf) {
    let (store, units, stream) = tail_changes_topk_world();
    let stream = &stream[..reports];
    let dir = temp_dir(tag);
    let resilience = ResilienceConfig {
        checkpoint_every: 8,
        state_dir: Some(dir.clone()),
        kill_at: Some(kill_at),
        ..ResilienceConfig::default()
    };
    let monitor = OptCtup::new(CtupConfig::with_k(3), store.clone(), &units).expect("clean store");
    let pipeline = SupervisedPipeline::spawn(monitor, resilience.clone(), 4096);
    let sink: Arc<dyn EngineSink> = Arc::new(PipelineSink::from_pipeline(pipeline));
    cfg.admission.ingest_deadline = Duration::from_secs(30);
    let server = IngestServer::spawn("127.0.0.1:0", cfg.clone(), sink).unwrap();
    let stamped = stamp_stream(stream.iter().copied());
    let fed = feed(
        TcpDialer::new(server.local_addr()),
        ClientConfig::default(),
        &stamped,
    );
    wait_for("the engine death", Duration::from_secs(15), || {
        server.degraded()
    });
    let net = server.shutdown();

    let restart = ResilienceConfig {
        kill_at: None,
        ..resilience
    };
    let pipeline =
        SupervisedPipeline::recover_from_dir::<OptCtup>(&dir, store.clone(), restart, 4096)
            .expect("recover from the directory");
    let sink: Arc<dyn EngineSink> = Arc::new(PipelineSink::from_pipeline(pipeline));
    let server = IngestServer::spawn("127.0.0.1:0", cfg, sink).unwrap();
    let mut positions = units;
    for update in stream {
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
    (fed, net, server, dir)
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
    let (fed, net, server, dir) =
        kill_then_restart("revive-last", 11, 10, NetServerConfig::default());
    assert_eq!(fed.acked, 11, "every report is journaled: {fed:?}");
    assert!(fed.sheds.is_empty(), "nothing is shed: {fed:?}");
    // No report followed: only the idle probe could notice the death.
    assert!(net.degraded, "engine death is sticky: {net:?}");
    assert_eq!(net.reports_accepted, 11, "{net:?}");
    assert!(!server.degraded(), "the revived door starts healthy");
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
    let fed = feed(
        TcpDialer::new(server.local_addr()),
        ClientConfig::default(),
        &stamped,
    );
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
    let tail: Vec<StampedUpdate> = fed
        .sheds
        .iter()
        .map(|shed| stamped[usize::try_from(shed.seq - 1).expect("fits")])
        .collect();
    let healed = feed(
        TcpDialer::new(server.local_addr()),
        ClientConfig::default(),
        &tail,
    );
    assert_eq!(
        fed.acked + healed.acked,
        200,
        "the restarted door must ack the shed tail: {healed:?}"
    );
    assert!(healed.sheds.is_empty(), "no report may be shed: {healed:?}");
    let net = server.shutdown();
    assert!(!net.degraded, "the restarted door stays healthy: {net:?}");
}

/// Probes every 50 ms, promotion after two silent ones.
const FAST_PROBES: (Duration, u32) = (Duration::from_millis(50), 2);

/// A durable primary (epoch 1, a slot every 32 reports, `kill_at` for its
/// engine) with a warm standby following it, after a priming batch that
/// makes the primary's durable state real so the checkpoint sync can
/// complete. `spans`, when set, is the standby's sink, both while it
/// follows and once it is promoted.
struct Replicated {
    primary: Option<IngestServer>,
    primary_addr: SocketAddr,
    standby: StandbyServer,
    standby_addr: SocketAddr,
    /// The standby's `wal_applied` once it settled after the priming: the
    /// sync may land mid-priming, with part of the batch arriving as
    /// journal or live frames.
    base: u64,
    dir_primary: PathBuf,
    dir_standby: PathBuf,
}

impl Replicated {
    fn start(
        tag: &str,
        store: &Arc<dyn PlaceStore>,
        units: &[Point],
        prime: &[StampedUpdate],
        kill_at: Option<u64>,
        spans: Option<Arc<SpanSink>>,
        (probe_interval, probe_failures): (Duration, u32),
    ) -> Replicated {
        let dir_primary = temp_dir(&format!("{tag}-primary"));
        let dir_standby = temp_dir(&format!("{tag}-standby"));
        let resilience = ResilienceConfig {
            checkpoint_every: 32,
            state_dir: Some(dir_primary.clone()),
            kill_at,
            ..ResilienceConfig::default()
        };
        let cfg = NetServerConfig {
            state_dir: Some(dir_primary.clone()),
            epoch: 1,
            ..NetServerConfig::default()
        };
        let monitor = OptCtup::new(CtupConfig::with_k(10), store.clone(), units).expect("clean");
        let pipeline = SupervisedPipeline::spawn(monitor, resilience, 4096);
        let sink = Arc::new(PipelineSink::from_pipeline(pipeline));
        let primary = IngestServer::spawn("127.0.0.1:0", cfg, sink).unwrap();
        let primary_addr = primary.local_addr();
        let standby_addr = reserve_addr();
        let standby = StandbyServer::spawn(
            StandbyConfig {
                primary_ingest: primary_addr,
                serve_addr: standby_addr.to_string(),
                // `trace_sample_every` stays 0: promotion must force
                // always-sample.
                net: NetServerConfig {
                    spans: spans.clone(),
                    ..NetServerConfig::default()
                },
                resilience: ResilienceConfig {
                    state_dir: Some(dir_standby.clone()),
                    spans,
                    ..ResilienceConfig::default()
                },
                probe_interval,
                probe_failures,
            },
            store.clone(),
        );
        let primed = feed(TcpDialer::new(primary_addr), ClientConfig::default(), prime);
        assert_eq!(primed.acked, prime.len() as u64);
        wait_for("checkpoint sync", Duration::from_secs(10), || {
            standby.status().phase == StandbyPhase::Following
        });
        assert_eq!(standby.status().epoch, 1);
        let base = settled(|| standby.status().wal_applied);
        Replicated {
            primary: Some(primary),
            primary_addr,
            standby,
            standby_addr,
            base,
            dir_primary,
            dir_standby,
        }
    }

    /// Feeds `reports` to the primary with a `config` client.
    fn feed(&self, config: ClientConfig, reports: &[StampedUpdate]) -> ClientStats {
        feed(TcpDialer::new(self.primary_addr), config, reports)
    }

    /// Feeds `reports` down the failover list: the primary, then the
    /// standby's door.
    fn walk_over(&self, reports: &[StampedUpdate]) -> ClientStats {
        let doors = TcpDialer::failover(self.primary_addr, [self.standby_addr]);
        feed(doors, ClientConfig::default(), reports)
    }

    /// Shuts the primary's door; the standby's probes go dark and it
    /// promotes at epoch 2. Returns the primary's last counters.
    fn kill_primary(&mut self) -> NetStatsSnapshot {
        let net = self.primary.take().expect("a primary").shutdown();
        wait_for("promotion", Duration::from_secs(10), || {
            self.standby.status().phase == StandbyPhase::Promoted
        });
        assert_eq!(
            self.standby.status().epoch,
            2,
            "promotion must bump the epoch"
        );
        net
    }

    fn finish(self) {
        self.standby.shutdown();
        drop(self.primary);
        std::fs::remove_dir_all(&self.dir_primary).ok();
        std::fs::remove_dir_all(&self.dir_standby).ok();
    }
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
    let mut replicated = Replicated::start(
        "promote",
        &store,
        &units,
        &stamped[..64],
        None,
        None,
        FAST_PROBES,
    );
    let standby = &replicated.standby;

    // The rest of the pre-kill feed arrives over the live WAL tail; each
    // frame is fresh (not in the shipped checkpoint), so `wal_applied`
    // counts it on top of the baseline.
    let live = replicated.feed(ClientConfig::default(), &stamped[64..300]);
    assert_eq!(live.acked, 236);
    wait_for("live WAL tail", Duration::from_secs(10), || {
        standby.status().wal_applied >= replicated.base + 236
    });

    let net = replicated.kill_primary();
    assert_eq!(net.reports_accepted, 300);
    let standby = &replicated.standby;
    let promoted = standby.promoted_addr().expect("promoted front door");
    assert_eq!(promoted, replicated.standby_addr);
    let health = standby.promoted_health().expect("promoted health");
    assert!(
        health.contains("\"failovers\":1") && health.contains("\"epoch\":2"),
        "promoted health must report the failover: {health}"
    );

    // The rest of the feed walks over to the promoted server.
    let stats = replicated.walk_over(&stamped[300..]);
    assert_eq!(
        stats.acked, 300,
        "the promoted server must accept the tail: {stats:?}"
    );

    let topk = settled(|| standby.promoted_topk().expect("promoted top-k"));
    let mut positions = units.clone();
    for update in &clean {
        positions[update.unit.index()] = update.new;
    }
    let oracle = Oracle::from_store(store.as_ref()).expect("clean store");
    oracle.assert_result_matches(&topk, &positions, RADIUS, QueryMode::TopK(10));
    replicated.finish();
}

/// A primary whose engine a `kill_at` stops at report 200, behind a
/// following standby: 64 priming reports, then the rest of a 600-report
/// feed, until the door has degraded. The primary's door is still up, so
/// the standby keeps following; replication is asynchronous, so the
/// helper waits for the standby's `wal_applied` to settle. The standby
/// probes every 250 ms: a 50 ms probe can go unanswered on a loaded host,
/// and the resync that follows would fold the batch from a slot instead
/// of frame by frame. Returns the replicated pair, the feed and the
/// client's tally of the live batch `feed[64..]`.
fn kill_mid_feed(
    workload: &mut Workload,
    store: &Arc<dyn PlaceStore>,
    tag: &str,
) -> (Replicated, Vec<StampedUpdate>, ClientStats) {
    let units = workload.unit_positions();
    let stamped = stamp_stream(clean_stream(workload, 600));
    let probes = (Duration::from_millis(250), 3);
    let replicated = Replicated::start(tag, store, &units, &stamped[..64], Some(200), None, probes);
    let live = replicated.feed(ClientConfig::default(), &stamped[64..]);
    assert!(live.shed_total() > 0, "the kill fired mid-feed: {live:?}");
    wait_for("the engine death", Duration::from_secs(15), || {
        replicated
            .primary
            .as_ref()
            .is_some_and(IngestServer::degraded)
    });
    settled(|| replicated.standby.status().wal_applied);
    (replicated, stamped, live)
}

/// The primary ships a report once its journal covers it and before its
/// ack, and a report the door sheds after the engine died never ships:
/// the standby folds exactly the reports the client was told were
/// accepted, none of those it was told were refused.
#[test]
fn a_standby_folds_exactly_the_reports_the_primary_acked() {
    let (mut workload, store) = setup(91);
    let (replicated, _, live) = kill_mid_feed(&mut workload, &store, "acked");
    let folded = settled(|| replicated.standby.status().wal_applied) - replicated.base;
    assert_eq!(
        folded,
        live.acked,
        "the standby folded {folded} reports of a batch the client saw {} acked, {} shed",
        live.acked,
        live.shed_total()
    );
    replicated.finish();
}

/// Promotion and a restart from the primary's state directory are one
/// restore over one image: after a kill mid-feed, the promoted standby
/// and `recover_from_dir` over the dead primary's directory serve the
/// same query — equal safeties, equal entries above `SK` — and both are
/// oracle-exact over the reports the client saw acked.
#[test]
fn promotion_and_restart_from_the_directory_serve_the_same_topk() {
    let (mut workload, store) = setup(92);
    let units = workload.unit_positions();
    let (mut replicated, stamped, live) = kill_mid_feed(&mut workload, &store, "one-restore");
    replicated.kill_primary();
    let promoted = replicated.standby.promoted_topk().expect("promoted top-k");
    let recovered = SupervisedPipeline::recover_from_dir::<OptCtup>(
        &replicated.dir_primary,
        store.clone(),
        ResilienceConfig::default(),
        64,
    )
    .expect("recover from the primary's directory");
    let restarted = recovered.initial_result().to_vec();
    recovered.shutdown();

    // The acked prefix: the priming batch and every live report not shed.
    let shed: Vec<u64> = live.sheds.iter().map(|s| s.seq).collect();
    let acked_live = (1u64..)
        .zip(&stamped[64..])
        .filter(|(seq, _)| !shed.contains(seq))
        .map(|(_, report)| report);
    let mut positions = units.clone();
    for report in stamped[..64].iter().chain(acked_live) {
        positions[report.update.unit.index()] = report.update.new;
    }
    let oracle = Oracle::from_store(store.as_ref()).expect("clean store");
    for topk in [&promoted, &restarted] {
        oracle.assert_result_matches(topk, &positions, RADIUS, QueryMode::TopK(10));
    }
    assert_eq!(safeties(&promoted), safeties(&restarted));
    let above_sk = |topk: &[TopKEntry]| -> Vec<TopKEntry> {
        let sk = topk.last().map(|e| e.safety);
        topk.iter()
            .copied()
            .filter(|e| Some(e.safety) != sk)
            .collect()
    };
    assert_eq!(above_sk(&promoted), above_sk(&restarted));
    replicated.finish();
}

/// Kill before/during checkpoint ship: a standby that never completed a
/// sync has nothing correct to serve, so it must keep retrying — never
/// promote, never fail into serving garbage.
#[test]
fn standby_never_promotes_without_a_synced_checkpoint() {
    let (_workload, store) = setup(83);
    let dead = reserve_addr();
    let standby = StandbyServer::spawn(
        StandbyConfig {
            primary_ingest: dead,
            serve_addr: "127.0.0.1:0".to_string(),
            probe_interval: Duration::from_millis(25),
            probe_failures: 1,
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
    let stamped = stamp_stream(clean_stream(&mut workload, 200));
    let probes = (Duration::from_millis(300), 3);
    let mut replicated = Replicated::start("fence", &store, &units, &stamped, None, None, probes);
    let (primary_addr, dir) = (replicated.primary_addr, replicated.dir_primary.clone());
    let cfg = NetServerConfig {
        state_dir: Some(dir.clone()),
        ..NetServerConfig::default()
    };

    // Bounce the primary: down just long enough to lose the replication
    // connection, back up before three 300 ms probes all go dark.
    replicated.primary.take().expect("a primary").shutdown();
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
    let status = replicated.standby.status();
    assert_ne!(
        status.phase,
        StandbyPhase::Promoted,
        "a live primary must fence the promotion: {status:?}"
    );
    assert_eq!(status.epoch, 1, "no epoch bump without promotion");
    assert!(replicated.standby.promoted_addr().is_none());
    replicated.primary = Some(replacement);
    replicated.finish();
}

/// A hand-rolled primary speaking the replication protocol on a loopback
/// port: it accepts one standby, waits for its subscribe frame, ships
/// `checkpoint` at `epoch` and then `frames`, and holds the connection open
/// until the standby hangs up.
fn fake_primary(
    checkpoint: &Checkpoint,
    epoch: u64,
    frames: Vec<Message>,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let mut body = Vec::new();
    checkpoint.write(&mut body).expect("checkpoint");
    let listener = TcpListener::bind("127.0.0.1:0").expect("fake primary");
    let addr = listener.local_addr().expect("addr");
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
            epoch,
            slot_seq: 0,
            total_len: u64::try_from(body.len()).expect("length fits"),
        });
        let mut offset = 0usize;
        while offset < body.len() {
            let end = (offset + MAX_CHUNK_DATA).min(body.len());
            writer.push(&Message::CheckpointChunk {
                epoch,
                offset: u64::try_from(offset).expect("offset fits"),
                data: body[offset..end].to_vec(),
            });
            offset = end;
        }
        for frame in &frames {
            writer.push(frame);
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
    (addr, fake)
}

/// A standby that follows `addr` with no probes during a scripted
/// exchange.
fn scripted_standby(addr: SocketAddr, store: Arc<dyn PlaceStore>) -> StandbyServer {
    StandbyServer::spawn(
        StandbyConfig {
            primary_ingest: addr,
            serve_addr: "127.0.0.1:0".to_string(),
            probe_interval: Duration::from_secs(30),
            probe_failures: 100,
            ..StandbyConfig::default()
        },
        store,
    )
}

/// Epoch fencing on the replication stream itself: frames stamped with a
/// stale epoch are rejected and counted; only current-epoch frames are
/// applied. Driven by a fake primary speaking the wire protocol.
#[test]
fn stale_epoch_wal_frames_are_rejected_by_the_standby() {
    let (workload, store) = setup(85);
    let units = workload.unit_positions();
    let monitor = OptCtup::new(CtupConfig::with_k(10), store.clone(), &units).expect("clean store");
    const EPOCH: u64 = 5;
    // Three stale frames from "the previous epoch", two current ones.
    let frames = [
        (EPOCH - 1, 0u32, 7u64),
        (EPOCH - 1, 1, 7),
        (EPOCH - 1, 2, 7),
        (EPOCH, 0, 1),
        (EPOCH, 1, 1),
    ]
    .into_iter()
    .map(|(epoch, unit, unit_seq)| Message::WalAppend {
        epoch,
        unit_seq,
        ts: unit_seq,
        unit,
        x: 0.5,
        y: 0.5,
        trace: 0,
    })
    .collect();
    let (addr, fake) = fake_primary(&monitor.checkpoint(), EPOCH, frames);

    let standby = scripted_standby(addr, store);
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

/// A standby refuses a shipped checkpoint that a restart from a directory
/// refuses, with the same error: here one whose gate state covers fewer
/// units than its position table. It fails instead of following behind a
/// gate of its own making.
#[test]
fn a_standby_refuses_a_checkpoint_that_recovery_refuses() {
    let (workload, store) = setup(87);
    let units = workload.unit_positions();
    let monitor = OptCtup::new(CtupConfig::with_k(10), store.clone(), &units).expect("clean store");
    let mut checkpoint = monitor.checkpoint();
    let unit = GateUnitState {
        last_seq: None,
        last_seen: 0,
        alive: true,
    };
    checkpoint.gate = Some(GateState {
        now: 0,
        units: vec![unit; units.len() - 1],
    });

    let dir = temp_dir("refused-checkpoint");
    DurableState::open(&dir)
        .and_then(|mut durable| durable.checkpoint(&checkpoint))
        .expect("a slot on disk");
    let refused = SupervisedPipeline::recover_from_dir::<OptCtup>(
        &dir,
        store.clone(),
        ResilienceConfig::default(),
        64,
    )
    .expect_err("recovery refuses the slot")
    .to_string();
    assert!(refused.contains("gate state covers"), "{refused}");

    let (addr, fake) = fake_primary(&checkpoint, 1, Vec::new());
    let standby = scripted_standby(addr, store);
    wait_for("the refusal", Duration::from_secs(10), || {
        matches!(standby.status().phase, StandbyPhase::Failed(_))
    });
    match standby.status().phase {
        StandbyPhase::Failed(why) => assert!(why.contains(&refused), "{why}"),
        phase => panic!("{phase:?}"),
    }
    assert!(standby.promoted_addr().is_none());
    standby.shutdown();
    fake.join().expect("fake primary exits cleanly");
    std::fs::remove_dir_all(&dir).ok();
}

/// Trace ids survive standby replication and the promotion epoch bump:
/// every live WAL frame carries its report's trace id, the standby's
/// standby-apply spans adopt those ids unchanged, and a promoted server
/// forces 1-in-1 head sampling so the failover window is fully traced
/// even for clients that never stamped an id.
#[test]
fn trace_ids_survive_standby_promotion_across_the_epoch_bump() {
    use ctup::obs::{sample_trace, Stage};
    use std::collections::BTreeSet;

    let (mut workload, store) = setup(86);
    let units = workload.unit_positions();
    let stamped = stamp_stream(clean_stream(&mut workload, 300));
    // The standby's halves of the traces — standby-apply while following,
    // the full pipeline once promoted — land in this one sink. The priming
    // batch is deliberately untraced.
    let standby_spans = Arc::new(SpanSink::new(65_536));
    let spans = Some(standby_spans.clone());
    let mut replicated = Replicated::start(
        "trace",
        &store,
        &units,
        &stamped[..64],
        None,
        spans,
        FAST_PROBES,
    );
    let base = replicated.base;

    // Traced live tail: these ship to the standby as WalAppend frames
    // carrying the client-minted trace ids.
    let trace_seed = 0xBB;
    let client_spans = Arc::new(SpanSink::new(4_096));
    let traced = ClientConfig {
        spans: Some(client_spans.clone()),
        trace_sample_every: 1,
        trace_seed,
        ..ClientConfig::default()
    };
    assert_eq!(replicated.feed(traced, &stamped[64..164]).acked, 100);
    wait_for("live WAL tail", Duration::from_secs(10), || {
        replicated.standby.status().wal_applied >= base + 100
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
    let net = replicated.kill_primary();
    assert_eq!(net.reports_accepted, 164);
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
    assert_eq!(replicated.walk_over(&stamped[164..300]).acked, 136);
    let snap = standby_spans.snapshot();
    assert!(
        snap.spans.iter().any(|s| s.stage == Stage::SessionAdmit),
        "promotion must force head sampling of untraced reports"
    );
    replicated.finish();
}
