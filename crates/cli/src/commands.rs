//! The `ctup` subcommands: `generate`, the offline driver `run`, and the
//! networked trio `serve`, `feed` and `trace`. Flags and usage text come
//! from the table in [`crate::args`]; every counter a command prints is
//! [`Snapshot::render_text`].

use crate::args::{CliError, Command, Flags};
use ctup_core::algorithm::CtupAlgorithm;
use ctup_core::config::{CtupConfig, QueryMode};
use ctup_core::ingest::{stamp_stream, StampedUpdate};
use ctup_core::naive::{NaiveIncremental, NaiveRecompute};
use ctup_core::net::{
    ClientConfig, EngineSink, FeedClient, IngestServer, NetServerConfig, NetStatsSnapshot,
    PipelineSink, StandbyConfig, StandbyPhase, StandbyServer, TcpDialer, PIPELINE_CAPACITY,
};
use ctup_core::report::Snapshot;
use ctup_core::server::{MonitorEvent, Server};
use ctup_core::supervisor::{ResilienceConfig, SupervisedPipeline};
use ctup_core::types::{LocationUpdate, TopKEntry, UnitId};
use ctup_core::{BasicCtup, DurableState, OptCtup, ShardedCtup};
use ctup_mogen::{PlaceGenConfig, PlaceGenerator, Workload, WorkloadParams};
use ctup_obs::{LatencySnapshot, MetricsServer, SpanSink};
use ctup_spatial::Grid;
use ctup_storage::{snapshot, CachedStore, CellLocalStore, PlaceStore, StorageError, MAX_RP};
use std::fmt::Write as _;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn io_err(context: &str, e: impl std::fmt::Display) -> CliError {
    CliError(format!("{context}: {e}"))
}

fn init_err(e: StorageError) -> CliError {
    CliError(format!("initializing the monitor: {e}"))
}

/// Parses `args` for `command` and runs it.
pub fn dispatch(command: Command, args: Vec<String>, out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(command, args)?;
    match command {
        Command::Generate => generate(&flags, out),
        Command::Run => run(&flags, out),
        Command::Serve => serve(&flags, out),
        Command::Feed => feed(&flags, out),
        Command::Trace => crate::trace::trace(&flags, out),
    }
}

const SEED: u64 = 0xC7;

/// The deterministic workload `--units`, `--places` and `--seed` select.
/// `run`, `serve` and `feed` all build it, so a `feed` with the flags of
/// its `serve` sends reports the server's ingest gate accepts.
fn workload(flags: &Flags) -> Result<Workload, CliError> {
    Ok(Workload::generate(WorkloadParams {
        num_units: flags.get("units", 150)?,
        places: PlaceGenConfig {
            count: flags.get("places", 15_000)?,
            ..PlaceGenConfig::default()
        },
        seed: flags.get("seed", SEED)?,
        ..WorkloadParams::default()
    }))
}

fn next_updates(workload: &mut Workload, n: usize) -> Vec<LocationUpdate> {
    workload
        .next_updates(n)
        .into_iter()
        .map(|u| LocationUpdate {
            unit: UnitId(u.object),
            new: u.to,
        })
        .collect()
}

/// The query of `run` and `serve`: top-`--k` (15) or `--threshold`.
fn query_config(flags: &Flags) -> Result<CtupConfig, CliError> {
    let mode = match (flags.opt("k")?, flags.opt("threshold")?) {
        (Some(_), Some(_)) => return Err(CliError("give --k or --threshold, not both".into())),
        (_, Some(threshold)) => QueryMode::Threshold(threshold),
        (k, None) => QueryMode::TopK(k.unwrap_or(15)),
    };
    Ok(CtupConfig {
        mode,
        protection_radius: flags.get("radius", 0.1)?,
        delta: flags.get("delta", 6)?,
        doo_enabled: !flags.switch("no-doo"),
        purge_dechash_on_access: true,
    })
}

fn write_result(text: &mut String, result: &[TopKEntry]) {
    text.push_str("final result:\n");
    for entry in result {
        let _ = writeln!(
            text,
            "  place {:>6}  safety {:>4}",
            entry.place.0, entry.safety
        );
    }
}

/// `ctup generate` — generate a place set and save it as a snapshot.
fn generate(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let seed: u64 = flags.get("seed", SEED)?;
    let config = PlaceGenConfig {
        count: flags.get("places", 15_000)?,
        rp_min: flags.get("rp-min", 1)?,
        rp_max: flags.get("rp-max", 8)?,
        rp_skew: flags.get("rp-skew", 1.0)?,
        ..PlaceGenConfig::default()
    };
    if config.rp_min > config.rp_max {
        return Err(CliError("--rp-min must not exceed --rp-max".into()));
    }
    if config.rp_max > MAX_RP {
        return Err(CliError(format!("--rp-max must not exceed {MAX_RP}")));
    }
    let places = PlaceGenerator::new(config).generate(seed);
    let path = flags.get_str("out").unwrap_or("places.txt");
    snapshot::save_places(Path::new(path), &places)
        .map_err(|e| io_err(&format!("writing {path}"), e))?;
    writeln!(out, "wrote {} places to {path} (seed {seed})", places.len())?;
    Ok(())
}

/// `ctup run` — the offline driver. It monitors the seeded stream (over
/// the places of `--places-file` when given) with the chosen engine, bare
/// on this thread, and prints the final top-k above the unified snapshot,
/// or only the snapshot as JSON or Prometheus text.
fn run(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let config = query_config(flags)?;
    let algorithm = flags.get_str("algorithm").unwrap_or("opt");
    let shards: u32 = flags.get("shards", 1)?;
    let format = flags.get_str("format").unwrap_or("text");
    let problem = if shards == 0 {
        Some("--shards must be at least 1".to_string())
    } else if !["text", "json", "prom"].contains(&format) {
        Some(format!(
            "unknown --format {format:?} (expected text, json or prom)"
        ))
    } else if !["opt", "basic", "naive", "naive-inc"].contains(&algorithm) {
        Some(format!(
            "unknown algorithm {algorithm:?} (expected opt, basic, naive or naive-inc)"
        ))
    } else if shards > 1 && algorithm != "opt" {
        Some(format!(
            "--shards {shards} requires the opt algorithm, got {algorithm:?}"
        ))
    } else {
        None
    };
    if let Some(problem) = problem {
        return Err(CliError(problem));
    }

    let mut workload = workload(flags)?;
    let places = match flags.get_str("places-file") {
        Some(path) => snapshot::load_places(Path::new(path))
            .map_err(|e| io_err(&format!("loading {path}"), e))?,
        None => workload.places_vec(),
    };
    let grid = Grid::unit_square(flags.get("granularity", 10)?);
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(grid, places));
    let store: Arc<dyn PlaceStore> = match flags.get("cell-cache-pages", 0)? {
        0 => store,
        pages => Arc::new(CachedStore::new(store, pages)),
    };
    let units = workload.unit_positions();
    let stream = next_updates(&mut workload, flags.get("updates", 1_000)?);
    let events = flags.switch("events");
    let mut text = String::new();
    let engine = Arc::clone(&store);
    macro_rules! drive {
        ($engine:expr) => {{
            let alg = $engine.map_err(init_err)?;
            drive(alg, store.as_ref(), stream, events, &mut text)?
        }};
    }
    let (result, snapshot) = match algorithm {
        "opt" if shards > 1 => drive!(ShardedCtup::new(config, engine, &units, shards)),
        "opt" => drive!(OptCtup::new(config, engine, &units)),
        "basic" => drive!(BasicCtup::new(config, engine, &units)),
        "naive" => drive!(NaiveRecompute::new(config, engine, &units)),
        _ => drive!(NaiveIncremental::new(config, engine, &units)),
    };

    write_result(&mut text, &result);
    let rendered = match format {
        "json" => snapshot.render_json() + "\n",
        "prom" => snapshot.render_prom(),
        _ => {
            out.write_all(text.as_bytes())?;
            snapshot.render_text()
        }
    };
    match flags.get_str("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| io_err(&format!("writing {path}"), e))?;
            writeln!(out, "report written to {path}")?;
        }
        None => out.write_all(rendered.as_bytes())?,
    }
    Ok(())
}

/// Drives `alg` over `stream` on this thread: its announcement, and with
/// `events` every monitor event, go to `text`.
fn drive<A: CtupAlgorithm>(
    alg: A,
    store: &dyn PlaceStore,
    stream: Vec<LocationUpdate>,
    events: bool,
    text: &mut String,
) -> Result<(Vec<TopKEntry>, Snapshot), CliError> {
    let (places, units) = (store.num_places(), alg.num_units());
    let (name, init_ms) = (alg.name(), alg.init_stats().wall.as_secs_f64() * 1e3);
    let _ = writeln!(
        text,
        "monitoring {places} places with {units} units using {name} (init {init_ms:.1} ms)"
    );
    // The sharded engine records per-shard latency itself; recording
    // the loop's view as well would double-count every update.
    let records_internally = alg.internal_latency().is_some();
    let mut latency = LatencySnapshot::default();
    let mut server = Server::new(alg);
    for update in stream {
        let (changes, stats) = server
            .ingest(update)
            .map_err(|e| CliError(format!("storage fault while applying an update: {e}")))?;
        if !records_internally {
            latency.update_maintain_nanos.record(stats.maintain_nanos);
            latency.update_access_nanos.record(stats.access_nanos);
            latency
                .update_total_nanos
                .record(stats.maintain_nanos.saturating_add(stats.access_nanos));
        }
        for change in changes.into_iter().filter(|_| events) {
            let _ = match change {
                MonitorEvent::Entered { place, safety } => {
                    writeln!(text, "  ALERT place {} (safety {safety})", place.0)
                }
                MonitorEvent::Left { place } => writeln!(text, "  clear place {}", place.0),
                MonitorEvent::SafetyChanged { place, old, new } => {
                    writeln!(text, "  place {} safety {old} -> {new}", place.0)
                }
            };
        }
    }
    let alg = server.into_algorithm();
    if let Some(internal) = alg.internal_latency() {
        latency.merge(&internal);
    }
    latency.disk_read_nanos.merge(&store.stats().read_latency());
    let storage = store.stats().snapshot();
    let snapshot = Snapshot::new(alg.name(), alg.metrics().clone(), storage, latency);
    Ok((alg.result(), snapshot))
}

/// Refuses a primary start without `--recover` over a `--state-dir` that
/// holds a slot: the start would overwrite the acked state a dead process
/// left there.
fn refuse_reused_state_dir(flags: &Flags) -> Result<(), CliError> {
    match flags.get_str("state-dir") {
        Some(dir) if !flags.switch("recover") && DurableState::holds_slot(Path::new(dir)) => {
            Err(CliError(format!(
                "--state-dir {dir} holds the state of an earlier run: resume it with --recover, or remove {dir} to start fresh"
            )))
        }
        _ => Ok(()),
    }
}

/// `ctup serve` — stand up the networked ingest front door: a sessioned
/// wire-protocol server feeding a supervised OptCTUP pipeline, with the
/// metrics endpoint (`/metrics` + `/healthz`) alongside. `--updates N`
/// first drives N workload updates through a loopback feed client, so the
/// served numbers (and the accounting printed at shutdown) are
/// non-trivial; `--serve-secs 0` exits right after. `--recover` restarts
/// the engine from `--state-dir` instead of from the generated workload.
fn serve(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let config = query_config(flags)?;
    let seed: u64 = flags.get("seed", SEED)?;
    let standby: Option<std::net::SocketAddr> = flags.opt("standby")?;
    let state_dir = flags.get_str("state-dir").map(PathBuf::from);
    let recover = flags.switch("recover");
    let problem = if flags.switch("checkpoint-every") && state_dir.is_none() {
        Some("--checkpoint-every requires --state-dir <dir>")
    } else if recover && state_dir.is_none() {
        Some("--recover requires --state-dir <dir>")
    } else if recover && standby.is_some() {
        Some("--recover restarts a primary; a --standby bootstraps from its primary")
    } else {
        None
    };
    if let Some(problem) = problem {
        return Err(CliError(problem.to_string()));
    }
    if standby.is_none() {
        refuse_reused_state_dir(flags)?;
    }
    // `--span-dump FILE` arms end-to-end causal tracing: one shared sink
    // for the door, the engine worker and the loopback feed, so a report's
    // client-send → … → snapshot-publish chain lands in one JSONL dump.
    let span_dump = flags.get_str("span-dump").map(Path::new);
    let spans = span_dump.map(|_| Arc::new(SpanSink::new(65_536)));
    let mut net_config = NetServerConfig {
        snapshot_push_interval: Duration::from_millis(flags.get("snapshot-push-ms", 250)?),
        epoch: flags.get("epoch", 1)?,
        state_dir: state_dir.clone(),
        spans: spans.clone(),
        trace_sample_every: flags.get("trace-every", 1)?,
        trace_seed: seed,
        ..NetServerConfig::default()
    };
    net_config.admission.queue_capacity = flags.get("queue-capacity", 4096)?;
    net_config.admission = net_config.admission.normalized();
    net_config.admission.ingest_deadline =
        Duration::from_millis(flags.get("ingest-deadline-ms", 2_000)?);
    net_config.session.session_quota = flags.get("session-quota", 256)?;

    let mut workload = workload(flags)?;
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(flags.get("granularity", 10)?),
        workload.places_vec(),
    ));
    // `--standby <primary>`: no local engine of our own yet — bootstrap
    // from the primary's shipped checkpoint, tail its WAL, and take over
    // (behind the epoch fence) if it goes dark.
    if let Some(primary) = standby {
        return serve_standby(flags, primary, net_config, store, span_dump, out);
    }

    let kill_at: u64 = flags.get("kill-at", 0)?;
    let resilience = ResilienceConfig {
        kill_at: (kill_at > 0).then_some(kill_at),
        state_dir: state_dir.clone(),
        checkpoint_every: flags.get("checkpoint-every", 256)?,
        spans: spans.clone(),
        ..ResilienceConfig::default()
    };
    // `--recover` is the way back after the engine or the process died:
    // the engine resumes from what the dead one left in --state-dir, and
    // a feed re-delivers its unacked reports (the gate drops what the
    // journal already holds).
    let pipeline = match state_dir.filter(|_| recover) {
        Some(dir) => {
            writeln!(out, "recovering from {}", dir.display())?;
            SupervisedPipeline::recover_from_dir::<OptCtup>(
                &dir,
                Arc::clone(&store),
                resilience,
                PIPELINE_CAPACITY,
            )
            .map_err(|e| CliError(format!("recovering from {}: {e}", dir.display())))?
        }
        None => {
            let units = workload.unit_positions();
            let monitor = OptCtup::new(config, Arc::clone(&store), &units).map_err(init_err)?;
            SupervisedPipeline::spawn(monitor, resilience, PIPELINE_CAPACITY)
        }
    };
    let sink = Arc::new(PipelineSink::from_pipeline(pipeline));
    let addr = flags.get_str("addr").unwrap_or("127.0.0.1:9710");
    let engine = Arc::clone(&sink) as Arc<dyn EngineSink>;
    let server = IngestServer::spawn(addr, net_config, engine)
        .map_err(|e| io_err(&format!("binding ingest address {addr}"), e))?;
    let metrics = bind_metrics(flags)?;
    let (door, scrape) = (server.local_addr(), metrics.local_addr());
    writeln!(
        out,
        "ingest front door at {door} | metrics at http://{scrape}/metrics | health at /healthz"
    )?;
    out.flush()?;

    let updates: usize = flags.get("updates", 0)?;
    if updates > 0 {
        // The loopback feed shares the server's sink, so client-send spans
        // land in the same dump (and on the same clock anchor) as the rest
        // of the pipeline — this is what makes single-process end-to-end
        // analysis possible.
        let client_config = ClientConfig {
            spans: spans.clone(),
            trace_sample_every: flags.get("trace-every", 1)?,
            trace_seed: seed,
            ..ClientConfig::default()
        };
        let client = FeedClient::new(Box::new(TcpDialer::new(server.local_addr())), client_config);
        let stream = stamp_stream(next_updates(&mut workload, updates));
        drive_feed(client, &stream, None, 120, "loopback feed", out)?;
    }

    // Serve loop: refresh the exposition every second — the unified
    // snapshot (storage + net sections live; engine counters arrive at
    // shutdown) plus the health body with the degraded flag.
    let serve_for = Duration::from_secs(flags.get("serve-secs", 300)?);
    let started = Instant::now();
    loop {
        let live = live_prom(store.as_ref(), server.stats().snapshot());
        metrics.publisher().publish(live);
        metrics.publisher().publish_health(server.health_body());
        if started.elapsed() >= serve_for {
            break;
        }
        std::thread::sleep(serve_for.min(Duration::from_secs(1)));
    }

    let net = server.shutdown();
    metrics.shutdown();
    // The sink's only other holders were the server threads; shutdown()
    // joined them, but a straggling handler may still be dropping its
    // clone, so wait bounded rather than spinning forever.
    let mut sink = sink;
    let unwrap_deadline = Instant::now() + Duration::from_secs(10);
    let pipeline = loop {
        match Arc::try_unwrap(sink) {
            Ok(inner) => break inner.into_pipeline(),
            Err(back) => {
                if Instant::now() >= unwrap_deadline {
                    return Err(CliError(
                        "a connection handler failed to release the engine sink".into(),
                    ));
                }
                sink = back;
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    let report = pipeline.shutdown();
    let (accepted, applied) = (net.reports_accepted, report.updates_processed);
    let duplicates = report.metrics.resilience.duplicates_dropped;
    writeln!(out, "exactly-once: {accepted} accepted at the door, {applied} applied by the engine, {duplicates} duplicates dropped at the gate")?;
    if report.killed {
        writeln!(
            out,
            "engine killed (--kill-at); the door degraded (restart with --recover)"
        )?;
    }
    let mut text = String::new();
    write_result(&mut text, &report.final_result);
    let snapshot = Snapshot::new(
        "opt",
        report.metrics,
        store.stats().snapshot(),
        report.latency,
    );
    text.push_str(&snapshot.with_net(net).render_text());
    out.write_all(text.as_bytes())?;
    // Dump spans last: the engine worker keeps recording until
    // `pipeline.shutdown()` above, so an earlier dump would truncate the
    // apply/publish tails of the final traces.
    dump_spans(span_dump, spans.as_deref(), out)
}

/// Binds the `/metrics` + `/healthz` endpoint at `--metrics-addr`.
fn bind_metrics(flags: &Flags) -> Result<MetricsServer, CliError> {
    let addr = flags.get_str("metrics-addr").unwrap_or("127.0.0.1:9184");
    MetricsServer::bind(addr).map_err(|e| io_err(&format!("binding metrics address {addr}"), e))
}

/// A front door's live `/metrics` body: its storage and net counters.
/// The engine's counters read zero here; they arrive in the shutdown
/// snapshot.
fn live_prom(store: &dyn PlaceStore, net: NetStatsSnapshot) -> String {
    let snapshot = Snapshot {
        algorithm: "opt-net".into(),
        storage: store.stats().snapshot(),
        net,
        ..Snapshot::default()
    };
    snapshot.render_prom()
}

/// Writes the sink's spans to `path` as JSONL (the `--span-dump` file
/// `cargo xtask spancheck` and `ctup trace` consume). No-op without both.
fn dump_spans(
    path: Option<&Path>,
    spans: Option<&SpanSink>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let (Some(path), Some(sink)) = (path, spans) else {
        return Ok(());
    };
    let dump = sink.dump_jsonl();
    let count = dump.lines().count();
    std::fs::write(path, dump)
        .map_err(|e| io_err(&format!("writing span dump {}", path.display()), e))?;
    let (sampled, dropped, path) = (sink.sampled(), sink.dropped(), path.display());
    writeln!(out, "span dump: {count} span(s) ({sampled} sampled trace(s), {dropped} dropped) written to {path}")?;
    Ok(())
}

/// The `--standby` arm of `serve`: follow the primary over the
/// replication stream, publish the follower's health (and, once promoted,
/// the promoted front door's health and metrics), and exit after
/// `--serve-secs`.
fn serve_standby(
    flags: &Flags,
    primary: std::net::SocketAddr,
    net_config: NetServerConfig,
    store: Arc<dyn PlaceStore>,
    span_dump: Option<&Path>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let spans = net_config.spans.clone();
    let standby_config = StandbyConfig {
        primary_ingest: primary,
        serve_addr: flags.get_str("addr").unwrap_or("127.0.0.1:0").to_string(),
        // The standby's halves of replicated traces (standby-apply, and
        // the full pipeline once promoted) share the same sink.
        resilience: ResilienceConfig {
            state_dir: net_config.state_dir.clone(),
            spans: spans.clone(),
            ..ResilienceConfig::default()
        },
        net: net_config,
        ..StandbyConfig::default()
    };
    let standby = StandbyServer::spawn(standby_config, Arc::clone(&store));
    let metrics = bind_metrics(flags)?;
    let health = metrics.local_addr();
    writeln!(
        out,
        "warm standby following {primary} | health at http://{health}/healthz"
    )?;
    out.flush()?;

    let serve_for = Duration::from_secs(flags.get("serve-secs", 300)?);
    let started = Instant::now();
    let mut announced = false;
    loop {
        let status = standby.status();
        if let StandbyPhase::Failed(why) = &status.phase {
            return Err(CliError(format!("standby failed: {why}")));
        }
        match standby.promoted_health() {
            Some(body) => {
                metrics.publisher().publish_health(body);
                if let Some(net) = standby.promoted_net_snapshot() {
                    metrics.publisher().publish(live_prom(store.as_ref(), net));
                }
                if let (false, Some(promoted)) = (announced, standby.promoted_addr()) {
                    let epoch = status.epoch;
                    writeln!(
                        out,
                        "promoted: ingest front door at {promoted} (epoch {epoch})"
                    )?;
                    out.flush()?;
                    announced = true;
                }
            }
            None => {
                let phase = match &status.phase {
                    StandbyPhase::Syncing => "syncing",
                    StandbyPhase::Following => "following",
                    StandbyPhase::Promoting => "promoting",
                    StandbyPhase::Promoted => "promoted",
                    StandbyPhase::Failed(_) => "failed",
                };
                metrics.publisher().publish_health(format!(
                    "{{\"status\":\"standby\",\"phase\":\"{phase}\",\"epoch\":{},\"wal_applied\":{},\"stale_rejected\":{}}}",
                    status.epoch, status.wal_applied, status.stale_rejected
                ));
            }
        }
        if started.elapsed() >= serve_for {
            break;
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    let status = standby.status();
    let (epoch, applied, stale) = (status.epoch, status.wal_applied, status.stale_rejected);
    writeln!(out, "standby exiting: epoch {epoch}, {applied} wal appends applied, {stale} stale frames rejected")?;
    standby.shutdown();
    metrics.shutdown();
    dump_spans(span_dump, spans.as_deref(), out)
}

/// `ctup feed` — drive the seeded workload into a running `ctup serve`
/// instance over the wire protocol, reconnecting and replaying through
/// `--addr` and then the `--failover` list.
fn feed(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = flags.get("addr", std::net::SocketAddr::from(([127, 0, 0, 1], 9710)))?;
    let rate_hz: f64 = flags.get("rate-hz", 0.0)?;
    let gap = (rate_hz > 0.0).then(|| Duration::from_secs_f64(1.0 / rate_hz));

    // `--span-dump` records this feeder's client-send spans (its halves of
    // the traces; the server records the rest in its own dump). The trace
    // ids stamped here use the workload seed, so the server-side spans of
    // a `serve --updates 0` + `feed` pair correlate by id.
    let span_dump = flags.get_str("span-dump").map(Path::new);
    let spans = span_dump.map(|_| Arc::new(SpanSink::new(65_536)));
    let mut client_config = ClientConfig {
        max_in_flight: flags.get("max-in-flight", 128)?,
        spans: spans.clone(),
        trace_sample_every: flags.get("trace-every", 1)?,
        trace_seed: flags.get("seed", SEED)?,
        ..ClientConfig::default()
    };
    client_config.backoff.max_attempts = flags.get("max-attempts", 8)?;
    // Every reconnect dials the next address: `--addr`, then the
    // `--failover` standbys, round-robin.
    let standbys = flags
        .get_str("failover")
        .unwrap_or_default()
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|part| {
            part.parse()
                .map_err(|e| CliError(format!("bad --failover entry {part:?}: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let stamped = stamp_stream(next_updates(
        &mut workload(flags)?,
        flags.get("updates", 1_000)?,
    ));
    let dialer = TcpDialer::failover(addr, standbys);
    let client = FeedClient::new(Box::new(dialer), client_config);
    let deadline_secs = flags.get("deadline-secs", 120)?;
    drive_feed(client, &stamped, gap, deadline_secs, "feed", out)?;
    dump_spans(span_dump, spans.as_deref(), out)
}

/// Enqueues `stream` (paced one report per `gap` when given, with the
/// client stepping the protocol in between), drains the rest within
/// `deadline_secs`, and prints the client's terminal accounting.
fn drive_feed(
    mut client: FeedClient,
    stream: &[StampedUpdate],
    gap: Option<Duration>,
    deadline_secs: u64,
    label: &str,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let feed_err = |e| CliError(format!("{label}: {e}"));
    let started = Instant::now();
    for (i, &report) in stream.iter().enumerate() {
        if let Some(gap) = gap {
            while Instant::now() < started + gap.mul_f64(i as f64) {
                client.step(Duration::from_millis(250)).map_err(feed_err)?;
            }
        }
        client.enqueue(report);
    }
    client
        .drive(Duration::from_secs(deadline_secs))
        .map_err(feed_err)?;
    let stats = client.finish();
    let (offered, acked, shed) = (stats.enqueued, stats.acked, stats.shed_total());
    let (reconnects, frames, snapshots) = (
        stats.reconnects,
        stats.frames_sent,
        stats.snapshots_received,
    );
    writeln!(out, "{label}: {offered} offered, {acked} acked, {shed} shed, {reconnects} reconnects, {frames} frames sent, {snapshots} snapshots received")?;
    if shed > 0 {
        let mut by = [0u64; 4];
        for record in &stats.sheds {
            by[usize::from(record.reason.code())] += 1;
        }
        let [queue, deadline, quota, degraded] = by;
        writeln!(out, "sheds by reason: {queue} queue full, {deadline} deadline, {quota} session quota, {degraded} engine degraded")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one `ctup` command line (words split on whitespace) and
    /// returns what it printed.
    fn ctup(line: &str) -> Result<String, CliError> {
        let mut words = line.split_whitespace().map(String::from);
        let name = words.next().unwrap_or_default();
        let command = Command::from_name(&name).expect("a subcommand");
        let mut out = Vec::new();
        dispatch(command, words.collect(), &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    /// A fresh scratch directory per test and process.
    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ctup-cli-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The value of a `name: value` line of a text snapshot.
    fn counter(out: &str, name: &str) -> u64 {
        out.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(": "))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing counter {name:?} in:\n{out}"))
    }

    /// The `(place, safety)` pairs of the printed final result.
    fn final_result(out: &str) -> Vec<(u64, i64)> {
        out.lines()
            .skip_while(|l| *l != "final result:")
            .skip(1)
            .take_while(|l| l.starts_with("  place"))
            .map(|l| {
                let words: Vec<&str> = l.split_whitespace().collect();
                (words[1].parse().unwrap(), words[3].parse().unwrap())
            })
            .collect()
    }

    fn safeties(out: &str) -> Vec<i64> {
        final_result(out).into_iter().map(|(_, s)| s).collect()
    }

    /// The entries of a top-k strictly more unsafe than its k-th safety
    /// SK: the ones no tie at SK can swap for another place.
    fn above_sk(result: &[(u64, i64)]) -> Vec<(u64, i64)> {
        let sk = result.iter().map(|&(_, s)| s).max().unwrap_or(i64::MIN);
        result.iter().copied().filter(|&(_, s)| s < sk).collect()
    }

    #[test]
    fn generate_and_run_with_snapshot() {
        let path = temp("generate").join("places.txt");
        let path = path.to_str().unwrap();
        let out = ctup(&format!("generate --places 300 --seed 5 --out {path}")).expect("generate");
        assert!(out.contains("wrote 300 places"));
        let out = ctup(&format!(
            "run --places-file {path} --units 10 --updates 50 --k 3 --seed 5"
        ))
        .expect("run");
        assert!(out.contains("monitoring 300 places with 10 units"), "{out}");
        assert_eq!(final_result(&out).len(), 3, "{out}");
        assert_eq!(counter(&out, "updates_processed"), 50, "{out}");
    }

    #[test]
    fn run_all_algorithms_small() {
        // Threshold mode and `--events` ride along on two of the engines.
        for (algorithm, query) in [
            ("opt", "--k 3"),
            ("basic", "--threshold -3 --events"),
            ("naive", "--k 3"),
            ("naive-inc", "--threshold -3 --events"),
        ] {
            let out = ctup(&format!(
                "run --algorithm {algorithm} {query} --places 200 --units 8 --updates 20"
            ))
            .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
            assert!(out.contains(&format!(" using {algorithm} ")), "{out}");
            assert_eq!(counter(&out, "updates_processed"), 20, "{algorithm}: {out}");
        }
    }

    #[test]
    fn sharded_run_matches_sequential_result() {
        // (seed, updates, shards, update-total samples = updates × shards)
        for (seed, updates, shards, samples) in [(17, 80, 4, 320), (29, 60, 3, 180)] {
            let base =
                format!("run --places 300 --units 10 --updates {updates} --k 4 --seed {seed}");
            let sequential = ctup(&base).expect("sequential run");
            let sharded = ctup(&format!("{base} --shards {shards} --cell-cache-pages 64"))
                .expect("sharded run");
            assert!(sharded.contains("using sharded"), "{sharded}");
            let (seq, par) = (final_result(&sequential), final_result(&sharded));
            // The engines must agree on every safety and on every entry
            // strictly below SK; the tie tail at SK is implementation-chosen
            // (see DESIGN.md §13), so place ids there may differ.
            assert_eq!(
                safeties(&sequential),
                safeties(&sharded),
                "{sequential}\n{sharded}"
            );
            let sk = seq.get(3).map(|&(_, s)| s);
            let below = |r: &[(u64, i64)]| -> Vec<(u64, i64)> {
                r.iter()
                    .filter(|&&(_, s)| sk.is_none_or(|sk| s < sk))
                    .copied()
                    .collect()
            };
            assert_eq!(below(&seq), below(&par), "{sequential}\n{sharded}");
            // The sharded engine's per-shard latency channels feed the
            // snapshot: every update seen by every shard is one sample.
            assert!(
                sharded.contains(&format!("update_total_nanos: n={samples} ")),
                "{sharded}"
            );
            // The sharded run reads through the cache.
            let hits = counter(&sharded, "storage_cache_hits");
            assert!(hits + counter(&sharded, "storage_cache_misses") > 0);
        }
    }

    const REPORT_BASE: &str = "run --places 200 --units 8 --updates 60 --k 3 --seed 13";

    #[test]
    fn run_formats_render_the_snapshot() {
        // (format flags, what the output must contain, `|`-separated)
        let cases = [
            (
                "--format text",
                "final result:\n  place|algorithm: opt\n|updates_processed: 60\n|\
                 storage_cell_reads: |resilience_worker_panics: 0\n|update_total_nanos: n=60 |\
                 p99=|storage_cache_hits: 0\n|storage_cache_misses: 0\n|cache_hit_ratio: 0.000000\n",
            ),
            (
                "--format json",
                "{\"algorithm\":\"opt\"|\"updates_processed\":60|\"p99\":|}\n",
            ),
            (
                "--format prom",
                "# TYPE ctup_updates_processed counter\n|\
                 ctup_updates_processed{algorithm=\"opt\"} 60\n|\
                 # TYPE ctup_update_total_nanos histogram\n|le=\"+Inf\"}|\
                 ctup_update_total_nanos_count{algorithm=\"opt\"} 60\n|\
                 ctup_resilience_checkpoints_taken{algorithm=\"opt\"} 0\n|\
                 ctup_checkpoint_write_nanos_count{algorithm=\"opt\"} 0\n",
            ),
        ];
        for (format, expected) in cases {
            let out = ctup(&format!("{REPORT_BASE} {format}")).expect(format);
            for want in expected.split('|') {
                assert!(out.contains(want), "{format}: {want:?} in\n{out}");
            }
            if format.contains("prom") {
                assert!(out
                    .lines()
                    .all(|l| l.starts_with('#') || l.starts_with("ctup_")));
            }
        }
        let path = temp("report").join("report.json");
        let out = ctup(&format!(
            "{REPORT_BASE} --format json --out {}",
            path.display()
        ));
        assert_eq!(
            out.unwrap(),
            format!("report written to {}\n", path.display())
        );
        let body = std::fs::read_to_string(&path).expect("file written");
        assert!(body.contains("\"histograms\":{"), "{body}");
    }

    #[test]
    fn run_with_tiny_cache_counts_misses_and_evictions() {
        // naive's bulk load reads each of the 10x10 grid's cells exactly
        // once in grid order and never touches storage again, so a one-page
        // budget makes every read a miss. The first cell fills the page;
        // every later one was read as often as that resident (once), so
        // the admission gate refuses it and nothing is ever evicted. The
        // whole pipeline (cache -> stats -> report) is thus exactly
        // predictable.
        let out = ctup(
            "run --algorithm naive --places 200 --units 8 --updates 30 --k 3 \
             --cell-cache-pages 1",
        )
        .expect("run with cache");
        assert_eq!(counter(&out, "storage_cache_hits"), 0, "{out}");
        assert_eq!(counter(&out, "storage_cache_misses"), 100, "{out}");
        assert_eq!(counter(&out, "storage_cache_evictions"), 0, "{out}");
        // Every lower-level read flowed through the cache as a miss.
        assert_eq!(counter(&out, "storage_cell_reads"), 100, "{out}");
        assert!(out.contains("cache_hit_ratio: 0.000000\n"), "{out}");
    }

    /// Every file of `dir` with its bytes, sorted by path.
    fn dir_bytes(dir: &std::path::Path) -> Vec<(std::path::PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn bad_invocations_are_rejected() {
        // `command line => error`; all fail before any workload is built
        // except `serve --standby`, hence its small one.
        for case in [
            "run --algorithm magic => unknown algorithm \"magic\"",
            "run --bogus 1 => unknown flag --bogus for `ctup run`",
            "run --addr 127.0.0.1:1 => unknown flag --addr for `ctup run`",
            "run --flight-recorder 8 => unknown flag --flight-recorder for `ctup run`",
            "run --format xml => unknown --format \"xml\"",
            "run --k 3 --threshold -2 => give --k or --threshold, not both",
            "run --shards 0 => --shards must be at least 1",
            "run --algorithm basic --shards 2 => requires the opt algorithm",
            // `run` has one path, the bare engine: the durable flags are
            // `serve`'s, and no command takes a fault flag.
            "run --drop 0.1 => unknown flag --drop for `ctup run`",
            "run --state-dir d => unknown flag --state-dir for `ctup run`",
            "serve --checkpoint-every 8 => --checkpoint-every requires --state-dir",
            "serve --recover => --recover requires --state-dir",
            "serve --recover --state-dir s --standby 127.0.0.1:1 => --recover restarts a primary",
            "generate --rp-min 9 --rp-max 2 => --rp-min must not exceed --rp-max",
            "generate --rp-max 65537 => --rp-max must not exceed 65536",
            "feed --granularity 10 => unknown flag --granularity for `ctup feed`",
            "feed --addr not-an-addr => bad value \"not-an-addr\" for --addr",
            "feed --failover not-an-addr => bad --failover entry",
            "feed --die-per-mille 5 => unknown flag --die-per-mille for `ctup feed`",
            "serve --standby nowhere => bad value \"nowhere\" for --standby",
        ] {
            let (line, error) = case.split_once(" => ").unwrap();
            let err = ctup(line).expect_err(line);
            assert!(err.0.contains(error), "{line}: {err}");
        }
    }

    #[test]
    fn serve_loopback_feed_accounts_exactly_once() {
        let out = ctup(
            "serve --units 25 --places 1500 --updates 200 --serve-secs 0 \
             --addr 127.0.0.1:0 --metrics-addr 127.0.0.1:0",
        )
        .expect("serve");
        for want in [
            "ingest front door at 127.0.0.1:",
            "health at /healthz",
            "loopback feed: 200 offered, 200 acked, 0 shed",
            "exactly-once: 200 accepted at the door, 200 applied by the engine",
        ] {
            assert!(out.contains(want), "{want:?} in\n{out}");
        }
        assert_eq!(counter(&out, "net_reports_accepted"), 200, "{out}");
        assert_eq!(counter(&out, "net_shed_total"), 0, "{out}");
        assert_eq!(counter(&out, "net_sessions_opened"), 1, "{out}");
        // The shutdown snapshot carries the engine's counters too.
        assert_eq!(counter(&out, "updates_processed"), 200, "{out}");
        assert_eq!(final_result(&out).len(), 15, "{out}");
    }

    #[test]
    fn serve_recover_restarts_a_killed_door_from_its_state_dir() {
        let dir = temp("serve-state");
        let world = "--units 25 --places 1500 --k 4 --seed 41";
        let door = "--serve-secs 0 --addr 127.0.0.1:0 --metrics-addr 127.0.0.1:0";
        let durable = format!("--checkpoint-every 0 --state-dir {}", dir.display());
        let serve = |extra: &str| ctup(&format!("serve {world} {door} {durable} {extra}"));
        let killed = serve("--updates 3000 --kill-at 100").expect("killed");
        assert!(killed.contains("engine killed"), "{killed}");
        // The death left its crash dump next to the slots: without a span
        // sink, the terminal line alone.
        let dump = std::fs::read_to_string(dir.join("flight-recorder.jsonl")).expect("dump");
        assert_eq!(dump.lines().count(), 1, "{dump}");
        assert!(
            dump.starts_with("{\"outcome\":\"killed\",\"seq\":"),
            "{dump}"
        );
        // A plain start over the dead door's directory is refused before
        // it touches the directory.
        let dead = dir_bytes(&dir);
        let err = serve("--updates 0").expect_err("a plain start over a dead directory");
        assert!(err.0.contains("resume it with --recover"), "{err}");
        assert!(err.0.contains("remove"), "{err}");
        assert!(
            dir_bytes(&dir) == dead,
            "the refused start wrote the directory"
        );
        let acked: usize = killed
            .split("loopback feed: 3000 offered, ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next()?.parse().ok())
            .unwrap_or_else(|| panic!("no loopback accounting in\n{killed}"));

        // The dead engine shed a tail. The new process serves the
        // journaled prefix, which holds every acked report, before a
        // report is sent: its top-k is the one an uninterrupted run over
        // that prefix ends with.
        let (_, tail) = ctup_core::DurableState::load(&dir).expect("load");
        assert!(
            acked <= tail.len() && tail.len() < 3000,
            "{acked} acked\n{killed}"
        );
        let recovered = serve("--recover --updates 0").expect("recovered");
        assert!(recovered.contains("recovering from"), "{recovered}");
        let replayed = counter(&recovered, "resilience_updates_replayed");
        assert_eq!(replayed, tail.len() as u64, "{recovered}");
        let prefix = ctup(&format!("run {world} --updates {}", tail.len())).expect("prefix");
        let (want, got) = (final_result(&prefix), final_result(&recovered));
        let why = format!("prefix run:\n{prefix}\nrecovered:\n{recovered}");
        assert_eq!(want.len(), 4, "{why}");
        assert_eq!(safeties(&prefix), safeties(&recovered), "{why}");
        assert_eq!(above_sk(&want), above_sk(&got), "{why}");

        // Re-delivering the whole stream to a restarted door is
        // exactly-once: it ends where an uninterrupted run ends.
        let refed = serve("--recover --updates 3000").expect("re-fed");
        assert!(
            refed.contains("loopback feed: 3000 offered, 3000 acked, 0 shed"),
            "{refed}"
        );
        let whole = ctup(&format!("run {world} --updates 3000")).expect("uninterrupted");
        let why = format!("uninterrupted:\n{whole}\nre-fed:\n{refed}");
        assert_eq!(safeties(&whole), safeties(&refed), "{why}");
        assert_eq!(
            above_sk(&final_result(&whole)),
            above_sk(&final_result(&refed)),
            "{why}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_span_dump_yields_a_complete_traced_chain() {
        let dump = temp("span").join("spans.jsonl");
        let dump = dump.to_str().unwrap();
        let out = ctup(&format!(
            "serve --units 25 --places 1500 --updates 40 --serve-secs 0 --addr 127.0.0.1:0 \
             --metrics-addr 127.0.0.1:0 --span-dump {dump} --trace-every 1"
        ))
        .expect("serve with span dump");
        assert!(out.contains("span dump:"), "{out}");
        assert!(counter(&out, "net_traces_sampled") >= 40, "{out}");
        let text = std::fs::read_to_string(dump).expect("span dump file");
        // Every canonical pipeline stage must appear in the dump.
        for label in ctup_obs::Stage::CANONICAL_CHAIN.map(|stage| stage.label()) {
            assert!(text.contains(label), "{label} missing:\n{text}");
        }
        // The analyzer must reconstruct at least one contiguous chain and
        // account its stage durations against the end-to-end latency.
        let traced = ctup(&format!("trace --input {dump} --slowest 3")).expect("trace analysis");
        for want in [
            "complete causal chain",
            "% of end-to-end",
            "client-send",
            "snapshot-publish",
            "diagnostics: 0 orphan(s)",
        ] {
            assert!(traced.contains(want), "{want:?} in\n{traced}");
        }
    }

    #[test]
    fn trace_requires_input_and_rejects_garbage() {
        let err = ctup("trace").expect_err("missing input");
        assert!(err.0.contains("--input"), "{err}");
        let path = temp("trace").join("garbage.jsonl");
        std::fs::write(&path, "not a span\n").unwrap();
        let err = ctup(&format!("trace --input {}", path.display())).expect_err("garbage");
        assert!(err.0.contains("garbage.jsonl:1"), "{err}");
    }

    /// A counting front door on loopback for the `feed` tests.
    fn counting_door() -> (Arc<ctup_core::net::CountingSink>, IngestServer) {
        let sink = Arc::new(ctup_core::net::CountingSink::default());
        let engine: Arc<dyn EngineSink> = Arc::clone(&sink) as Arc<dyn EngineSink>;
        let server = IngestServer::spawn("127.0.0.1:0", NetServerConfig::default(), engine)
            .expect("spawn server");
        (sink, server)
    }

    #[test]
    fn feed_drives_a_live_server_and_reports_accounting() {
        let (sink, server) = counting_door();
        let addr = server.local_addr();
        let out = ctup(&format!(
            "feed --addr {addr} --updates 150 --units 25 --places 1500"
        ));
        let out = out.expect("feed");
        assert!(
            out.contains("feed: 150 offered, 150 acked, 0 shed, 0 reconnects"),
            "{out}"
        );
        assert_eq!(sink.accepted(), 150);
        let net = server.shutdown();
        assert_eq!(net.reports_accepted, 150);
        assert_eq!(net.shed_total(), 0);
    }

    #[test]
    fn feed_walks_over_to_a_failover_address() {
        // Primary address points at nothing; the failover list's second
        // entry is a live server — the dialer must walk over to it.
        let (sink, server) = counting_door();
        let live = server.local_addr();
        // A bound-then-dropped listener yields an address that refuses.
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr")
        };
        let out = ctup(&format!(
            "feed --addr {dead} --failover {live} --updates 50 --units 25 --places 1500 \
             --max-attempts 8"
        ))
        .expect("feed with failover");
        assert!(out.contains("feed: 50 offered, 50 acked, 0 shed"), "{out}");
        assert_eq!(sink.accepted(), 50);
        let net = server.shutdown();
        assert_eq!(net.reports_accepted, 50);
    }
}
