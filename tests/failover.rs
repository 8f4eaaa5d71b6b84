//! Failover: a monitor restored from a checkpoint is a fresh
//! initialization from the checkpointed unit positions — it must answer
//! exactly what the primary answers from that point on (up to ties at
//! `SK`) — and the one way back from an engine death, a restart from the
//! state directory, must survive a kill matrix: the door notices the
//! death even when idle and degrades, and a restart from the durable
//! slot + journal tail behind a fresh door serves the replayed top-k at
//! once.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup::core::algorithm::CtupAlgorithm;
use ctup::core::checkpoint::Checkpoint;
use ctup::core::config::CtupConfig;
use ctup::core::ingest::{stamp_stream, GateState, GateUnitState, StampedUpdate, TracedReport};
use ctup::core::net::{
    ClientConfig, ClientStats, Dialer, EngineSink, FeedClient, IngestServer, NetServerConfig,
    NetStatsSnapshot, PipelineSink, ShedReason, SinkError, TcpDialer,
};
use ctup::core::supervisor::{ResilienceConfig, SupervisedPipeline};
use ctup::core::types::{LocationUpdate, Place, PlaceId, Safety, TopKEntry, UnitId};
use ctup::core::{DurableState, OptCtup, Oracle};
use ctup::mogen::{PlaceGenConfig, Workload, WorkloadParams};
use ctup::spatial::{Grid, Point};
use ctup::storage::{CellLocalStore, PlaceStore};
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

/// Restore is init: the restored monitor is re-derived from the
/// checkpointed unit positions, so it may hold other places tied at `SK`
/// than the primary and maintain a different set. It must answer the same
/// query — the same `SK` and result safeties, oracle-exact after every
/// update — and it must be exactly what a fresh initialization from the
/// same positions builds.
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

    // Checkpoint, serialize through the text codec, restore.
    let mut buf = Vec::new();
    primary
        .checkpoint()
        .write(&mut buf)
        .expect("write checkpoint");
    let restored_cp = Checkpoint::read(buf.as_slice()).expect("read checkpoint");
    assert_eq!(restored_cp.unit_positions, units);
    let mut restored = OptCtup::restore(restored_cp, store.clone()).expect("restore checkpoint");

    assert_eq!(
        restored.sk(),
        primary.sk(),
        "SK differs right after restore"
    );
    assert_eq!(
        safeties(&restored.result()),
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
    assert_eq!(restored.result(), fresh.result());
    let oracle = Oracle::new(workload.places_vec());
    let io_before = store.stats().snapshot();

    // Both servers process the same tail of the stream: the restored one
    // stays oracle-exact with the primary's SK, and in lockstep with the
    // fresh monitor, logical costs included.
    let s_before = restored.metrics().clone();
    let f_before = fresh.metrics().clone();
    for update in workload.next_updates(500) {
        let location_update = LocationUpdate {
            unit: UnitId(update.object),
            new: update.to,
        };
        units[update.object as usize] = update.to;
        primary.handle_update(location_update).expect("clean store");
        restored
            .handle_update(location_update)
            .expect("clean store");
        fresh.handle_update(location_update).expect("clean store");
        oracle.assert_result_matches(
            &restored.result(),
            &units,
            config.protection_radius,
            config.k(),
        );
        assert_eq!(restored.sk(), primary.sk());
        assert_eq!(restored.result(), fresh.result());
    }
    let s_delta = restored.metrics().since(&s_before);
    let f_delta = fresh.metrics().since(&f_before);
    assert_eq!(s_delta.cells_accessed, f_delta.cells_accessed);
    assert_eq!(s_delta.places_loaded, f_delta.places_loaded);
    assert_eq!(s_delta.lb_decrements, f_delta.lb_decrements);
    assert_eq!(
        s_delta.lb_decrements_suppressed,
        f_delta.lb_decrements_suppressed
    );
    assert_eq!(s_delta.result_changes, f_delta.result_changes);
    restored.check_lb_invariant();

    let io = store.stats().snapshot().since(&io_before);
    // The window opens after restore, so only the continued monitoring of
    // the two servers reads cells.
    assert!(
        io.records_read < 2 * 500 * 40,
        "continued monitoring caused excessive lower-level traffic: {io:?}"
    );
}

/// Restore depends only on the store it runs over: a checkpoint restored
/// over another place set, or over the same places on a 20×20 or a 6×6
/// grid, is oracle-exact for that store over the tail that follows.
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
    let coarse: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(6),
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
        (coarse, workload.places_vec()),
    ] {
        let oracle = Oracle::new(places);
        let mut units = units.clone();
        let mut restored = OptCtup::restore(checkpoint.clone(), store).expect("restore");
        oracle.assert_result_matches(
            &restored.result(),
            &units,
            config.protection_radius,
            config.k(),
        );
        for &update in &tail {
            restored.handle_update(update).expect("clean store");
            units[update.unit.0 as usize] = update.new;
            oracle.assert_result_matches(
                &restored.result(),
                &units,
                config.protection_radius,
                config.k(),
            );
        }
        restored.check_lb_invariant();
    }
}

// ---------------------------------------------------------------------
// Restart-from-the-directory kill matrix.
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
    oracle.assert_result_matches(&topk, &positions, RADIUS, 3);
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

/// Recovery refuses a slot it cannot restore honestly, with a typed
/// error: here one whose gate state covers fewer units than its position
/// table. It fails instead of resuming behind a gate of its own making.
#[test]
fn recovery_refuses_a_slot_whose_gate_state_does_not_cover_its_units() {
    let (workload, store) = setup(87);
    let units = workload.unit_positions();
    let monitor = OptCtup::new(CtupConfig::with_k(10), store.clone(), &units).expect("clean store");
    let mut checkpoint = monitor.checkpoint();
    let unit = GateUnitState { last_seq: None };
    checkpoint.gate = Some(GateState {
        units: vec![unit; units.len() - 1],
    });

    let dir = temp_dir("refused-checkpoint");
    DurableState::open(&dir)
        .and_then(|mut durable| durable.checkpoint(&checkpoint))
        .expect("a slot on disk");
    let refused = SupervisedPipeline::recover_from_dir::<OptCtup>(
        &dir,
        store,
        ResilienceConfig::default(),
        64,
    )
    .expect_err("recovery refuses the slot")
    .to_string();
    assert!(refused.contains("gate state covers"), "{refused}");
    std::fs::remove_dir_all(&dir).ok();
}
