//! Network chaos suite: the ingest front door under faulty links and an
//! overloaded or dying engine.
//!
//! A seeded [`NetFaultPlan`] scripts connection attempts — refused dials,
//! links that die after a byte budget (tearing frames mid-write), and
//! slowloris trickles — while the real supervised pipeline rides behind
//! the [`PipelineSink`]. The invariants are exact, not statistical: every
//! accepted report is applied exactly once (the final top-k matches the
//! brute-force oracle), every refused report carries a typed shed reason,
//! and `accepted + shed` accounts for every sequence number offered.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup::core::algorithm::CtupAlgorithm;
use ctup::core::config::{CtupConfig, QueryMode};
use ctup::core::ingest::{stamp_stream, StampedUpdate, TracedReport};
use ctup::core::net::client::{ClientConfig, Conn, Dialer};
use ctup::core::net::overload::CountingSink;
use ctup::core::net::wire::{ByeReason, FrameDecoder, Message};
use ctup::core::net::{
    DurableHook, EngineSink, FeedClient, IngestServer, NetServerConfig, PipelineSink, SinkError,
    TcpDialer,
};
use ctup::core::supervisor::{ResilienceConfig, SupervisedPipeline};
use ctup::core::types::{LocationUpdate, TopKEntry, UnitId};
use ctup::core::{DurableState, OptCtup, Oracle};
use ctup::mogen::{ChaosStream, NetFaultPlan, PlaceGenConfig, Workload, WorkloadParams};
use ctup::spatial::Grid;
use ctup::storage::{CellLocalStore, PlaceStore};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const NUM_UNITS: u32 = 25;
const RADIUS: f64 = 0.1;

fn setup(seed: u64) -> (Workload, Arc<dyn PlaceStore>) {
    let workload = Workload::generate(WorkloadParams {
        num_units: NUM_UNITS,
        places: PlaceGenConfig {
            count: 1_500,
            ..PlaceGenConfig::default()
        },
        seed,
        ..WorkloadParams::default()
    });
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(8),
        workload.places_vec(),
    ));
    (workload, store)
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

/// Builds the pipeline-backed sink pair: the `Arc<PipelineSink>` the test
/// keeps (to recover the pipeline at the end) and the trait-object clone
/// the server consumes.
fn pipeline_sink(
    store: &Arc<dyn PlaceStore>,
    units: &[ctup::spatial::Point],
    resilience: ResilienceConfig,
    capacity: usize,
) -> (Arc<PipelineSink>, Arc<dyn EngineSink>) {
    let monitor = OptCtup::new(CtupConfig::with_k(10), store.clone(), units).expect("clean store");
    let initial = monitor.result();
    let pipeline = SupervisedPipeline::spawn(monitor, resilience, capacity);
    let sink = Arc::new(PipelineSink::new(pipeline, initial));
    let dyn_sink: Arc<dyn EngineSink> = sink.clone();
    (sink, dyn_sink)
}

/// Takes the sink back out of the `Arc` once the server's handler threads
/// have finished dropping their clones (they exit just after the server's
/// shutdown joins, so this can race for a few milliseconds).
fn unwrap_sink(mut sink: Arc<PipelineSink>) -> PipelineSink {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match Arc::try_unwrap(sink) {
            Ok(inner) => return inner,
            Err(back) => {
                assert!(Instant::now() < deadline, "server threads kept the sink");
                sink = back;
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Dials through a [`ChaosStream`], scripting each attempt off the plan.
struct FaultyLinkDialer {
    addr: SocketAddr,
    plan: NetFaultPlan,
    attempt: u64,
}

impl Dialer for FaultyLinkDialer {
    fn dial(&mut self) -> std::io::Result<Box<dyn Conn>> {
        let script = self.plan.script(self.attempt);
        self.attempt += 1;
        let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(2))?;
        stream.set_read_timeout(Some(Duration::from_millis(25)))?;
        stream.set_write_timeout(Some(Duration::from_millis(25)))?;
        let _ = stream.set_nodelay(true);
        Ok(Box::new(ChaosStream::new(stream, script)))
    }
}

/// Clean links, real pipeline: every report arrives over TCP, is applied
/// exactly once, and the final top-k is oracle-exact.
#[test]
fn clean_networked_feed_is_oracle_exact() {
    let (mut workload, store) = setup(21);
    let units = workload.unit_positions();
    let clean = clean_stream(&mut workload, 600);
    let stamped = stamp_stream(clean.clone());

    let (sink, dyn_sink) = pipeline_sink(&store, &units, ResilienceConfig::default(), 4096);
    let server = IngestServer::spawn("127.0.0.1:0", NetServerConfig::default(), dyn_sink).unwrap();
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(server.local_addr())),
        ClientConfig::default(),
    );
    for &report in &stamped {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(30)).expect("clean links");
    let stats = client.finish();
    assert_eq!(stats.acked, 600);
    assert!(stats.sheds.is_empty());

    let net = server.shutdown();
    assert_eq!(net.reports_accepted, 600);
    assert_eq!(net.shed_total(), 0);
    assert_eq!(net.frames_malformed, 0);

    let report = unwrap_sink(sink).into_pipeline().shutdown();
    assert!(!report.gave_up && !report.killed);
    assert_eq!(report.updates_processed, 600);

    let mut positions = units.clone();
    for update in &clean {
        positions[update.unit.index()] = update.new;
    }
    let oracle = Oracle::from_store(store.as_ref()).expect("clean store");
    oracle.assert_result_matches(
        &report.final_result,
        &positions,
        RADIUS,
        QueryMode::TopK(10),
    );
}

/// Links that die mid-frame force reconnects; the client replays its
/// unacked tail and the session registry suppresses what the engine
/// already has. The monitor must still converge to the oracle — the proof
/// that reconnect-and-replay never double-applies.
#[test]
fn reconnect_replay_is_duplicate_suppressed_and_oracle_exact() {
    let (mut workload, store) = setup(22);
    let units = workload.unit_positions();
    let clean = clean_stream(&mut workload, 600);
    let stamped = stamp_stream(clean.clone());

    let (sink, dyn_sink) = pipeline_sink(&store, &units, ResilienceConfig::default(), 4096);
    let server = IngestServer::spawn("127.0.0.1:0", NetServerConfig::default(), dyn_sink).unwrap();
    // Attempts 0 and 1 die after 264 / 57 written bytes (mid-frame);
    // attempt 2 is clean. The schedule is a pure function of the seed.
    let plan = NetFaultPlan {
        die_per_mille: 500,
        die_min_bytes: 40,
        die_spread_bytes: 400,
        refuse_per_mille: 100,
        ..NetFaultPlan::default()
    };
    let mut client = FeedClient::new(
        Box::new(FaultyLinkDialer {
            addr: server.local_addr(),
            plan,
            attempt: 0,
        }),
        ClientConfig::default(),
    );
    for &report in &stamped {
        client.enqueue(report);
    }
    client
        .drive(Duration::from_secs(60))
        .expect("bounded retry");
    let stats = client.finish();
    assert!(stats.reconnects > 0, "the plan must force reconnects");
    assert!(
        stats.frames_sent > 600,
        "reconnects must replay the unacked tail"
    );
    assert_eq!(stats.acked, 600);
    assert!(stats.sheds.is_empty());

    let net = server.shutdown();
    assert_eq!(net.reports_accepted, 600);
    assert_eq!(net.shed_total(), 0);
    assert!(
        net.sessions_resumed > 0,
        "reconnects must resume the session: {net:?}"
    );

    let report = unwrap_sink(sink).into_pipeline().shutdown();
    // Exactly once: had any replay slipped past the registry, the count
    // would exceed the clean stream (the gate would also reject it, and
    // duplicates_dropped would light up).
    assert_eq!(report.updates_processed, 600);
    assert_eq!(report.metrics.resilience.duplicates_dropped, 0);

    let mut positions = units.clone();
    for update in &clean {
        positions[update.unit.index()] = update.new;
    }
    let oracle = Oracle::from_store(store.as_ref()).expect("clean store");
    oracle.assert_result_matches(
        &report.final_result,
        &positions,
        RADIUS,
        QueryMode::TopK(10),
    );
}

/// A sink that records what the engine saw, with a configurable service
/// time so a small admission queue genuinely overflows.
struct SlowRecordingSink {
    delay: Duration,
    got: Mutex<Vec<u64>>,
}

impl EngineSink for SlowRecordingSink {
    fn try_ingest(&self, report: TracedReport) -> Result<(), SinkError> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.got.lock().unwrap().push(report.report.seq);
        Ok(())
    }

    fn topk(&self) -> Vec<TopKEntry> {
        Vec::new()
    }
}

/// Overload: a burst into a small queue in front of a slow engine. Sheds
/// are typed, the client sees them, and `accepted + shed` accounts for
/// every offered report — with the engine-side record agreeing exactly.
#[test]
fn overload_sheds_typed_and_accounting_is_exact() {
    let mut cfg = NetServerConfig::default();
    cfg.admission.queue_capacity = 8;
    cfg.admission.high_watermark = 6;
    cfg.admission.low_watermark = 2;
    cfg.admission.ingest_deadline = Duration::from_secs(30);
    cfg.snapshot_push_interval = Duration::ZERO;
    let sink = Arc::new(SlowRecordingSink {
        delay: Duration::from_millis(2),
        got: Mutex::new(Vec::new()),
    });
    let dyn_sink: Arc<dyn EngineSink> = sink.clone();
    let server = IngestServer::spawn("127.0.0.1:0", cfg, dyn_sink).unwrap();
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(server.local_addr())),
        ClientConfig::default(),
    );
    let total = 300u64;
    for seq in 1..=total {
        client.enqueue(StampedUpdate {
            seq,
            ts: seq,
            update: LocationUpdate {
                unit: UnitId(7),
                new: ctup::spatial::Point::new(0.25, 0.75),
            },
        });
    }
    client.drive(Duration::from_secs(30)).unwrap();
    let stats = client.finish();
    let engine_saw = sink.got.lock().unwrap().clone();
    let net = server.shutdown();

    // Engine-side truth: exactly the accepted reports, each exactly once.
    let mut unique = engine_saw.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), engine_saw.len(), "engine saw a duplicate");
    assert_eq!(engine_saw.len() as u64, net.reports_accepted);
    // Exact accounting, server- and client-side.
    assert_eq!(net.reports_accepted + net.shed_total(), total, "{net:?}");
    assert!(net.shed_queue_full > 0, "the burst must shed: {net:?}");
    assert_eq!(stats.acked, net.reports_accepted);
    assert_eq!(stats.acked + stats.shed_total(), total);
    // Every client-visible shed carries a typed reason the server counted.
    for shed in &stats.sheds {
        assert!(
            shed_reason_counted(&net, shed.reason),
            "shed {shed:?} not reflected in {net:?}"
        );
    }
}

/// Whether a typed shed reason has a nonzero server-side counter.
fn shed_reason_counted(net: &ctup::core::NetStatsSnapshot, reason: ctup::core::ShedReason) -> bool {
    use ctup::core::ShedReason as R;
    match reason {
        R::QueueFull => net.shed_queue_full > 0,
        R::DeadlineExceeded => net.shed_deadline_exceeded > 0,
        R::SessionQuota => net.shed_session_quota > 0,
        R::EngineDegraded => net.shed_engine_degraded > 0,
    }
}

/// A slowloris sender trickling one byte per 10ms is evicted on the frame
/// deadline, while a healthy client on the same server is untouched.
#[test]
fn slowloris_is_evicted_while_healthy_client_proceeds() {
    let cfg = NetServerConfig {
        frame_deadline: Duration::from_millis(100),
        ..NetServerConfig::default()
    };
    let server =
        IngestServer::spawn("127.0.0.1:0", cfg, Arc::new(CountingSink::default())).unwrap();
    let addr = server.local_addr();
    let slow = std::thread::spawn(move || {
        let plan = NetFaultPlan {
            slow_per_mille: 1000,
            slow_chunk: 1,
            slow_delay: Duration::from_millis(10),
            ..NetFaultPlan::default()
        };
        let mut cfg = ClientConfig::default();
        cfg.backoff.max_attempts = 2;
        let mut client = FeedClient::new(
            Box::new(FaultyLinkDialer {
                addr,
                plan,
                attempt: 0,
            }),
            cfg,
        );
        for seq in 1..=5u64 {
            client.enqueue(StampedUpdate {
                seq,
                ts: seq,
                update: LocationUpdate {
                    unit: UnitId(1),
                    new: ctup::spatial::Point::new(0.5, 0.5),
                },
            });
        }
        // Every frame trickles past the deadline: the server keeps
        // evicting, the bounded retry budget eventually gives up.
        let _ = client.drive(Duration::from_secs(10));
    });
    let mut healthy = FeedClient::new(Box::new(TcpDialer::new(addr)), ClientConfig::default());
    for seq in 1..=100u64 {
        healthy.enqueue(StampedUpdate {
            seq,
            ts: seq,
            update: LocationUpdate {
                unit: UnitId(2),
                new: ctup::spatial::Point::new(0.75, 0.25),
            },
        });
    }
    healthy.drive(Duration::from_secs(10)).unwrap();
    let stats = healthy.finish();
    assert_eq!(stats.acked, 100, "healthy client must be unaffected");
    slow.join().unwrap();
    let net = server.shutdown();
    assert!(
        net.sessions_evicted >= 1,
        "slowloris never evicted: {net:?}"
    );
}

/// A connection that dies mid-frame is counted as a partial disconnect,
/// distinct from a clean goodbye.
#[test]
fn partial_frame_disconnect_is_counted() {
    let server = IngestServer::spawn(
        "127.0.0.1:0",
        NetServerConfig::default(),
        Arc::new(CountingSink::default()),
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut hello = Vec::new();
    Message::Hello { resume_session: 0 }.encode(&mut hello);
    raw.write_all(&hello).unwrap();
    let mut ack = [0u8; 32];
    assert!(raw.read(&mut ack).unwrap() > 0, "handshake ack expected");
    let mut frame = Vec::new();
    Message::Report {
        seq: 1,
        unit_seq: 1,
        ts: 1,
        unit: 7,
        x: 0.5,
        y: 0.5,
        trace: 0,
    }
    .encode(&mut frame);
    raw.write_all(&frame[..frame.len() / 2]).unwrap();
    drop(raw);
    let stats = server.stats();
    let deadline = Instant::now() + Duration::from_secs(3);
    while stats.snapshot().partial_disconnects == 0 {
        assert!(
            Instant::now() < deadline,
            "partial disconnect never counted"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// A reconnect storm beyond the session cap: the first `max_sessions`
/// handshakes succeed, the next is refused with a typed `ServerFull` bye
/// and counted as rejected.
#[test]
fn session_cap_refuses_with_server_full() {
    let mut cfg = NetServerConfig::default();
    cfg.session.max_sessions = 2;
    let server =
        IngestServer::spawn("127.0.0.1:0", cfg, Arc::new(CountingSink::default())).unwrap();
    let mut hello = Vec::new();
    Message::Hello { resume_session: 0 }.encode(&mut hello);
    let mut held = Vec::new();
    for i in 0..3 {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        raw.write_all(&hello).unwrap();
        let mut decoder = FrameDecoder::new();
        let msg = loop {
            match decoder.read_from(&mut raw) {
                Ok(m) => break m,
                Err(e) if e.is_timeout() => continue,
                Err(e) => panic!("conn {i}: {e:?}"),
            }
        };
        match (i, msg) {
            (0 | 1, Message::Ack { .. }) => held.push(raw),
            (2, Message::Bye { reason }) => assert_eq!(reason, ByeReason::ServerFull),
            (i, m) => panic!("conn {i}: unexpected {m:?}"),
        }
    }
    drop(held);
    let net = server.shutdown();
    assert_eq!(net.sessions_opened, 2);
    assert!(net.connections_rejected >= 1);
}

/// Engine death mid-run: the front door flips to degraded, sheds with a
/// typed reason, keeps serving the last-good top-k (to `/healthz` readers
/// and snapshot subscribers), and the client's accounting still closes.
#[test]
fn engine_death_degrades_and_serves_last_good() {
    let (mut workload, store) = setup(31);
    let units = workload.unit_positions();
    let stamped = stamp_stream(clean_stream(&mut workload, 300));

    // Small pipeline capacity so engine death surfaces as backpressure,
    // not a silently absorbed buffer; the worker is killed at update 150.
    let resilience = ResilienceConfig {
        kill_at: Some(150),
        ..ResilienceConfig::default()
    };
    let (sink, dyn_sink) = pipeline_sink(&store, &units, resilience, 8);
    let mut cfg = NetServerConfig {
        snapshot_push_interval: Duration::from_millis(50),
        ..NetServerConfig::default()
    };
    cfg.admission.ingest_deadline = Duration::from_secs(5);
    let server = IngestServer::spawn("127.0.0.1:0", cfg, dyn_sink).unwrap();
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(server.local_addr())),
        ClientConfig::default(),
    );

    // Phase 1: feed 100 with the engine alive, let the watchdog cache a
    // last-good result.
    for &report in &stamped[..100] {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(10)).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    assert!(!server.degraded());
    let last_good = server.last_good_topk();
    assert!(!last_good.is_empty(), "watchdog must cache a live top-k");
    assert!(server.health_body().contains("\"degraded\":false"));

    // Phase 2: the kill fires mid-feed; the tail is shed, typed.
    for &report in &stamped[100..] {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(30)).unwrap();
    assert!(server.degraded(), "engine death must trip degraded mode");
    assert!(server.health_body().contains("\"degraded\":true"));
    // The engine is dead, so the cached result is now frozen — still
    // served, never silently stale-refreshed.
    let frozen = server.last_good_topk();
    assert!(
        !frozen.is_empty(),
        "degraded mode keeps the last-good top-k"
    );

    // A subscriber still gets snapshots, flagged degraded and carrying
    // the frozen result.
    client.listen(Duration::from_millis(300)).unwrap();
    let (degraded, entries) = client.last_snapshot().expect("snapshot push").clone();
    assert!(degraded);
    assert_eq!(
        entries,
        frozen
            .iter()
            .map(|e| (e.place.0, e.safety))
            .collect::<Vec<_>>()
    );
    assert_eq!(server.last_good_topk(), frozen, "frozen result is stable");

    let stats = client.finish();
    assert_eq!(stats.acked + stats.shed_total(), 300);
    let net = server.shutdown();
    assert!(net.degraded);
    assert!(net.shed_engine_degraded > 0, "{net:?}");
    assert!(net.degraded_entries >= 1);
    assert_eq!(net.reports_accepted + net.shed_total(), 300);

    let report = unwrap_sink(sink).into_pipeline().shutdown();
    assert!(report.killed);
}

/// Durable end-to-end: the engine is killed mid-stream behind the front
/// door, a fresh pipeline recovers from the surviving checkpoint slot,
/// and a reconnecting feeder re-delivers the whole stream. The registry
/// is gone (new server), so dedup falls to the ingest gate — and the
/// final top-k must still be oracle-exact.
#[test]
#[cfg_attr(miri, ignore = "touches real files, sockets and threads")]
fn kill_and_recover_over_the_wire_is_oracle_exact() {
    let (mut workload, store) = setup(7);
    let units = workload.unit_positions();
    let clean = clean_stream(&mut workload, 600);
    let stamped = stamp_stream(clean.clone());
    let dir = std::env::temp_dir().join(format!("ctup-netchaos-durable-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Phase A: feed through the door until the worker is killed at 300.
    let resilience = ResilienceConfig {
        checkpoint_every: 48,
        state_dir: Some(dir.clone()),
        kill_at: Some(300),
        ..ResilienceConfig::default()
    };
    let (sink, dyn_sink) = pipeline_sink(&store, &units, resilience, 8);
    let mut cfg = NetServerConfig::default();
    cfg.admission.ingest_deadline = Duration::from_secs(5);
    let server = IngestServer::spawn("127.0.0.1:0", cfg, dyn_sink).unwrap();
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(server.local_addr())),
        ClientConfig::default(),
    );
    for &report in &stamped {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(60)).unwrap();
    let stats = client.finish();
    assert!(
        stats.shed_total() > 0,
        "the killed engine must shed the tail"
    );
    let net = server.shutdown();
    assert!(net.degraded, "engine death must degrade the door");
    assert_eq!(net.reports_accepted + net.shed_total(), 600);
    let report = unwrap_sink(sink).into_pipeline().shutdown();
    assert!(report.killed);
    // Nothing writes the directory once the engine is dead: tearing the
    // newest slot now is a death mid-checkpoint-write.
    DurableState::tear_newest_slot(&dir).expect("tear the newest slot");

    // Phase B: "new process" — recover from the surviving slot, stand up
    // a fresh front door, re-deliver everything.
    let pipeline = SupervisedPipeline::recover_from_dir::<OptCtup>(
        &dir,
        store.clone(),
        ResilienceConfig {
            checkpoint_every: 48,
            state_dir: Some(dir.clone()),
            ..ResilienceConfig::default()
        },
        4096,
    )
    .expect("recover from the surviving slot");
    let sink = Arc::new(PipelineSink::new(pipeline, Vec::new()));
    let dyn_sink: Arc<dyn EngineSink> = sink.clone();
    let server = IngestServer::spawn("127.0.0.1:0", NetServerConfig::default(), dyn_sink).unwrap();
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(server.local_addr())),
        ClientConfig::default(),
    );
    for &report in &stamped {
        client.enqueue(report);
    }
    client.drive(Duration::from_secs(60)).unwrap();
    let stats = client.finish();
    assert_eq!(stats.acked, 600, "recovered engine accepts the full feed");
    let net = server.shutdown();
    assert_eq!(net.reports_accepted, 600);
    assert_eq!(net.shed_total(), 0);

    let report = unwrap_sink(sink).into_pipeline().shutdown();
    assert!(!report.gave_up && !report.killed);
    let r = &report.metrics.resilience;
    assert!(r.updates_replayed > 0, "the journal tail must be replayed");
    assert!(
        r.duplicates_dropped + r.stale_dropped > 0,
        "the re-delivered prefix must be deduplicated by the gate"
    );

    let mut positions = units.clone();
    for update in &clean {
        positions[update.unit.index()] = update.new;
    }
    let oracle = Oracle::from_store(store.as_ref()).expect("clean store");
    oracle.assert_result_matches(
        &report.final_result,
        &positions,
        RADIUS,
        QueryMode::TopK(10),
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// The tick is out of the ack path. `io_tick` is raised to two seconds, so
// any reply that still waited for a tick would blow these bounds by a
// factor of four or more, on any machine; the real supervised engine
// sits behind the door.
// ---------------------------------------------------------------------

const SLOW_TICK: Duration = Duration::from_secs(2);
const PROMPT: Duration = Duration::from_millis(500);

/// A door with a two-second `io_tick` in front of a real pipeline.
fn slow_tick_door(seed: u64) -> (Workload, Arc<PipelineSink>, IngestServer) {
    let (workload, store) = setup(seed);
    let units = workload.unit_positions();
    let (sink, dyn_sink) = pipeline_sink(&store, &units, ResilienceConfig::default(), 4096);
    let cfg = NetServerConfig {
        io_tick: SLOW_TICK,
        ..NetServerConfig::default()
    };
    let server = IngestServer::spawn("127.0.0.1:0", cfg, dyn_sink).unwrap();
    (workload, sink, server)
}

/// Reads frames off a raw socket until `done` says stop or the peer
/// closes; returns what arrived.
fn read_frames(raw: &mut TcpStream, mut done: impl FnMut(&Message) -> bool) -> Vec<Message> {
    raw.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        assert!(Instant::now() < deadline, "peer went quiet: {frames:?}");
        match decoder.read_from(raw) {
            Ok(msg) => {
                let stop = done(&msg);
                frames.push(msg);
                if stop {
                    return frames;
                }
            }
            Err(e) if e.is_timeout() => continue,
            Err(_) => return frames,
        }
    }
}

fn raw_hello(addr: SocketAddr) -> TcpStream {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_nodelay(true).unwrap();
    let mut hello = Vec::new();
    Message::Hello { resume_session: 0 }.encode(&mut hello);
    raw.write_all(&hello).unwrap();
    raw
}

fn report_frame(seq: u64, report: &StampedUpdate) -> Vec<u8> {
    let mut frame = Vec::new();
    Message::Report {
        seq,
        unit_seq: report.seq,
        ts: report.ts,
        unit: report.update.unit.0,
        x: report.update.new.x,
        y: report.update.new.y,
        trace: 0,
    }
    .encode(&mut frame);
    frame
}

/// The handshake `Ack` is the writer half's first frame, not something a
/// handler gets to after its next read times out.
#[test]
fn handshake_does_not_wait_for_the_tick() {
    let (_workload, sink, server) = slow_tick_door(41);
    let started = Instant::now();
    let mut raw = raw_hello(server.local_addr());
    let frames = read_frames(&mut raw, |m| matches!(m, Message::Ack { .. }));
    let took = started.elapsed();
    assert!(matches!(frames.last(), Some(Message::Ack { .. })));
    assert!(took < PROMPT, "handshake took {took:?}");
    drop(raw);
    server.shutdown();
    unwrap_sink(sink).into_pipeline().shutdown();
}

/// One report on an idle door: everything is parked — reader in its
/// read, pump in `pop`, supervisor in `recv`, writer on the session — and
/// the ack still comes straight back, carried by the durable hook the
/// supervisor fires for its one-report group.
#[test]
fn a_lone_report_on_an_idle_door_is_acked_without_a_tick() {
    let (mut workload, sink, server) = slow_tick_door(42);
    let stamped = stamp_stream(clean_stream(&mut workload, 1));
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(server.local_addr())),
        ClientConfig::default(),
    );
    client.step(Duration::from_secs(5)).expect("handshake");
    std::thread::sleep(Duration::from_millis(100));
    client.enqueue(stamped[0]);
    let sent = Instant::now();
    client.drive(Duration::from_secs(10)).expect("clean links");
    let took = sent.elapsed();
    assert_eq!(client.stats().acked, 1);
    assert!(took < PROMPT, "the lone report's ack took {took:?}");
    client.finish();
    server.shutdown();
    unwrap_sink(sink).into_pipeline().shutdown();
}

/// A closed loop at the default window of 128 used to move one window
/// per tick: 1 000 reports took eight ticks. It now takes what the
/// engine takes.
#[test]
fn a_closed_loop_is_not_paced_by_the_tick() {
    let (mut workload, sink, server) = slow_tick_door(43);
    let stamped = stamp_stream(clean_stream(&mut workload, 1_000));
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(server.local_addr())),
        ClientConfig::default(),
    );
    client.step(Duration::from_secs(5)).expect("handshake");
    for &report in &stamped {
        client.enqueue(report);
    }
    let sent = Instant::now();
    client.drive(Duration::from_secs(60)).expect("clean links");
    let took = sent.elapsed();
    let stats = client.finish();
    assert_eq!(stats.acked, 1_000);
    assert!(stats.sheds.is_empty());
    assert!(took < SLOW_TICK, "1000 reports took {took:?}");
    let net = server.shutdown();
    assert_eq!(net.reports_accepted, 1_000);
    let report = unwrap_sink(sink).into_pipeline().shutdown();
    assert_eq!(report.updates_processed, 1_000);
}

/// An engine whose durable mark moves only when the test says so, and
/// which announces it the way the supervisor does: through the hook.
#[derive(Default)]
struct GatedSink {
    handed: AtomicU64,
    mark: AtomicU64,
    hook: Mutex<Option<DurableHook>>,
}

impl GatedSink {
    fn release(&self, up_to: u64) {
        self.mark.store(up_to, Ordering::SeqCst);
        let hook = self.hook.lock().unwrap().clone();
        hook.expect("the door installs a hook")();
    }
}

impl EngineSink for GatedSink {
    fn try_ingest(&self, _report: TracedReport) -> Result<(), SinkError> {
        self.handed.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn topk(&self) -> Vec<TopKEntry> {
        Vec::new()
    }

    fn durable_mark(&self) -> u64 {
        self.mark.load(Ordering::SeqCst)
    }

    fn set_durable_hook(&self, hook: DurableHook) {
        *self.hook.lock().unwrap() = Some(hook);
    }
}

/// The ack discipline under the new wake-ups: an `Ack` never covers a
/// hand-off index above the sink's durable mark, however long the door
/// sits on the reports, and follows the mark as soon as the sink
/// announces it — not a tick later.
#[test]
fn acks_stop_at_the_durable_mark_and_follow_its_announcement() {
    let sink = Arc::new(GatedSink::default());
    let cfg = NetServerConfig {
        io_tick: SLOW_TICK,
        ..NetServerConfig::default()
    };
    let server = IngestServer::spawn("127.0.0.1:0", cfg, sink.clone()).unwrap();
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(server.local_addr())),
        ClientConfig::default(),
    );
    for seq in 1..=10u64 {
        client.enqueue(StampedUpdate {
            seq,
            ts: seq,
            update: LocationUpdate {
                unit: UnitId(3),
                new: ctup::spatial::Point::new(0.5, 0.5),
            },
        });
    }
    let step_until = |client: &mut FeedClient, what: &str, done: &dyn Fn(&FeedClient) -> bool| {
        let started = Instant::now();
        while !done(client) {
            assert!(started.elapsed() < PROMPT, "{what} took over {PROMPT:?}");
            client.step(Duration::from_secs(5)).expect("clean links");
        }
    };
    step_until(&mut client, "the hand-off", &|_| {
        sink.handed.load(Ordering::SeqCst) == 10
    });
    // All ten are with the engine, none is durable: nothing is acked.
    for _ in 0..4 {
        client.step(Duration::from_secs(5)).expect("clean links");
    }
    assert_eq!(client.stats().acked, 0);
    sink.release(4);
    step_until(&mut client, "the ack of 1..=4", &|c| c.stats().acked >= 4);
    for _ in 0..4 {
        client.step(Duration::from_secs(5)).expect("clean links");
    }
    assert_eq!(client.stats().acked, 4, "an ack ran ahead of the mark");
    sink.release(10);
    step_until(&mut client, "the ack of 5..=10", &|c| c.stats().acked == 10);
    client.finish();
    let net = server.shutdown();
    assert_eq!(net.reports_accepted, 10);
}

/// Shutdown still ends every session in order: whatever acks are owed,
/// then `Bye(Shutdown)` as the last frame — the reader half sees the stop
/// flag, the writer half does the talking.
#[test]
fn shutdown_still_flushes_the_final_ack_and_the_goodbye() {
    let (mut workload, store) = setup(44);
    let units = workload.unit_positions();
    let stamped = stamp_stream(clean_stream(&mut workload, 3));
    let (sink, dyn_sink) = pipeline_sink(&store, &units, ResilienceConfig::default(), 4096);
    let server = IngestServer::spawn("127.0.0.1:0", NetServerConfig::default(), dyn_sink).unwrap();
    let mut raw = raw_hello(server.local_addr());
    for (seq, report) in (1u64..).zip(&stamped) {
        raw.write_all(&report_frame(seq, report)).unwrap();
    }
    // Nothing is read until the server is gone: the acks wait in the
    // socket, the goodbye has to queue up behind them.
    let stats = server.stats();
    let deadline = Instant::now() + Duration::from_secs(5);
    while stats.snapshot().reports_accepted < 3 {
        assert!(Instant::now() < deadline, "reports never accepted");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
    let frames = read_frames(&mut raw, |_| false);
    let last_ack = frames.iter().rev().find_map(|m| match m {
        Message::Ack { handled_up_to, .. } => Some(*handled_up_to),
        _ => None,
    });
    assert_eq!(last_ack, Some(3), "final ack missing: {frames:?}");
    assert_eq!(
        frames.last(),
        Some(&Message::Bye {
            reason: ByeReason::Shutdown
        }),
        "{frames:?}"
    );
    unwrap_sink(sink).into_pipeline().shutdown();
}

/// A trickling sender is the reader half's to catch; the goodbye it
/// decides on is the writer half's to send.
#[test]
fn slowloris_gets_its_goodbye_from_the_writer_half() {
    let (mut workload, store) = setup(45);
    let units = workload.unit_positions();
    let stamped = stamp_stream(clean_stream(&mut workload, 1));
    let (sink, dyn_sink) = pipeline_sink(&store, &units, ResilienceConfig::default(), 4096);
    let cfg = NetServerConfig {
        frame_deadline: Duration::from_millis(100),
        ..NetServerConfig::default()
    };
    let server = IngestServer::spawn("127.0.0.1:0", cfg, dyn_sink).unwrap();
    let mut raw = raw_hello(server.local_addr());
    let frame = report_frame(1, &stamped[0]);
    raw.write_all(&frame[..frame.len() / 2]).unwrap();
    let frames = read_frames(&mut raw, |_| false);
    assert_eq!(
        frames.last(),
        Some(&Message::Bye {
            reason: ByeReason::Evicted
        }),
        "{frames:?}"
    );
    let net = server.shutdown();
    assert_eq!(net.sessions_evicted, 1);
    assert_eq!(net.reports_accepted, 0);
    unwrap_sink(sink).into_pipeline().shutdown();
}

/// A sink with a result wide enough that a few snapshot pushes fill any
/// socket buffer.
struct WideSink;

impl EngineSink for WideSink {
    fn try_ingest(&self, _report: TracedReport) -> Result<(), SinkError> {
        Ok(())
    }

    fn topk(&self) -> Vec<TopKEntry> {
        (0..4_000)
            .map(|i| TopKEntry {
                place: ctup::core::types::PlaceId(i),
                safety: -1,
            })
            .collect()
    }
}

/// A peer that stops reading is the writer half's to catch: its backlog
/// stops draining, the deadline passes, and the writer takes the
/// connection down under the reader half — which then lets go of the
/// session (it stays resumable) and of the connection slot.
#[test]
fn a_peer_that_stops_reading_is_evicted_by_the_writer_half() {
    let cfg = NetServerConfig {
        snapshot_push_interval: Duration::from_millis(2),
        watchdog_tick: Duration::from_millis(2),
        write_deadline: Duration::from_millis(150),
        max_write_backlog: 1 << 30,
        ..NetServerConfig::default()
    };
    let server = IngestServer::spawn("127.0.0.1:0", cfg, Arc::new(WideSink)).unwrap();
    let mut raw = raw_hello(server.local_addr());
    let frames = read_frames(&mut raw, |m| matches!(m, Message::Ack { .. }));
    assert!(matches!(frames.last(), Some(Message::Ack { .. })));
    // From here on the peer reads nothing; 48 KB snapshots every 2 ms
    // fill the socket buffers within a second.
    let stats = server.stats();
    let deadline = Instant::now() + Duration::from_secs(20);
    while stats.snapshot().sessions_evicted == 0 {
        assert!(Instant::now() < deadline, "slow reader never evicted");
        std::thread::sleep(Duration::from_millis(20));
    }
    // The server closed the socket: draining what was buffered ends in
    // EOF (or a reset), never in a goodbye nobody could have flushed.
    let frames = read_frames(&mut raw, |_| false);
    assert!(
        !frames.iter().any(|m| matches!(m, Message::Bye { .. })),
        "an evicted slow reader cannot be told goodbye"
    );
    let net = server.shutdown();
    assert_eq!(net.sessions_evicted, 1);
}

/// Trace-id survival across reconnect-and-replay: span ids are pure
/// functions of `(trace, stage)`, so a retransmitted report re-records
/// the *same* client-send span instead of forking the trace tree, and
/// every sampled trace still carries exactly one causal chain after the
/// link chaos settles.
#[test]
fn trace_ids_survive_reconnect_replay_without_forking() {
    use ctup::obs::{sample_trace, SpanSink, Stage};
    use std::collections::BTreeMap;

    let (mut workload, store) = setup(29);
    let units = workload.unit_positions();
    let clean = clean_stream(&mut workload, 300);
    let stamped = stamp_stream(clean);

    // One sink shared by client, door and engine: the whole chain lands
    // in one dump, exactly like `ctup serve --span-dump` over loopback.
    let spans = Arc::new(SpanSink::new(65_536));
    let (sink, dyn_sink) = pipeline_sink(
        &store,
        &units,
        ResilienceConfig {
            spans: Some(spans.clone()),
            ..ResilienceConfig::default()
        },
        4096,
    );
    let cfg = NetServerConfig {
        spans: Some(spans.clone()),
        ..NetServerConfig::default()
    };
    let server = IngestServer::spawn("127.0.0.1:0", cfg, dyn_sink).unwrap();
    // The same fault plan as the replay suite: dials that die mid-frame
    // force reconnects and unacked-tail retransmissions.
    let plan = NetFaultPlan {
        die_per_mille: 500,
        die_min_bytes: 40,
        die_spread_bytes: 400,
        refuse_per_mille: 100,
        ..NetFaultPlan::default()
    };
    let trace_seed = 0xA1;
    let mut client = FeedClient::new(
        Box::new(FaultyLinkDialer {
            addr: server.local_addr(),
            plan,
            attempt: 0,
        }),
        ClientConfig {
            spans: Some(spans.clone()),
            trace_sample_every: 1,
            trace_seed,
            ..ClientConfig::default()
        },
    );
    for &report in &stamped {
        client.enqueue(report);
    }
    client
        .drive(Duration::from_secs(60))
        .expect("bounded retry");
    let stats = client.finish();
    assert!(stats.reconnects > 0, "the plan must force reconnects");
    assert!(
        stats.frames_sent > 300,
        "reconnects must replay the unacked tail"
    );
    assert_eq!(stats.acked, 300);

    let net = server.shutdown();
    assert_eq!(net.reports_accepted, 300);
    // Every id was minted client-side; the server must adopt them rather
    // than re-mint (a fork would double this counter).
    assert_eq!(net.traces_sampled, 300, "{net:?}");
    let report = unwrap_sink(sink).into_pipeline().shutdown();
    assert_eq!(report.updates_processed, 300);

    let snap = spans.snapshot();
    assert_eq!(snap.spans_dropped, 0, "sized for the full run");
    let mut by_trace: BTreeMap<u64, Vec<&'static str>> = BTreeMap::new();
    for s in &snap.spans {
        by_trace.entry(s.trace).or_default().push(s.stage.label());
    }
    // Exactly the 300 client-minted ids appear — replays created no new
    // traces — and every one carries the full canonical chain despite
    // the retransmissions (the session registry suppressed the replays
    // before they could reach the server-side stages a second time).
    assert_eq!(by_trace.len(), 300, "replays must not fork new traces");
    for seq in 1..=300u64 {
        let trace = sample_trace(trace_seed, seq, 1);
        let stages = by_trace.get(&trace).unwrap_or_else(|| {
            panic!("trace for seq {seq} missing from the dump");
        });
        for stage in Stage::CANONICAL_CHAIN {
            assert!(
                stages.contains(&stage.label()),
                "seq {seq}: stage {} missing from {stages:?}",
                stage.label()
            );
        }
    }
}
