//! The CLI subcommands: `generate`, `run`, `resume`, `chaos`, `report`,
//! `serve-metrics`, `serve`, `feed`.

use crate::args::{ArgError, Flags};
use ctup_core::algorithm::{CtupAlgorithm, UpdateStats};
use ctup_core::checkpoint::Checkpoint;
use ctup_core::config::{CtupConfig, QueryMode};
use ctup_core::ingest::{stamp_stream, StampedUpdate};
use ctup_core::naive::{NaiveIncremental, NaiveRecompute};
use ctup_core::net::{
    ClientConfig, Conn, Dialer, EngineReviver, EngineSink, FailoverDialer, FeedClient,
    IngestServer, NetServerConfig, NetStatsSnapshot, PipelineSink, RecoveryConfig, RecoveryPlan,
    StandbyConfig, StandbyPhase, StandbyServer, TcpDialer,
};
use ctup_core::report::Snapshot;
use ctup_core::server::{MonitorEvent, Server};
use ctup_core::supervisor::{ResilienceConfig, SupervisedPipeline};
use ctup_core::types::{LocationUpdate, UnitId};
use ctup_core::{BasicCtup, OptCtup, ShardedCtup};
use ctup_mogen::{
    ChaosStream, FaultPlan, NetFaultPlan, PlaceGenConfig, PlaceGenerator, Workload, WorkloadParams,
};
use ctup_obs::{summarize, LatencySnapshot, MetricsServer, Span, SpanSink, Stage};
use ctup_spatial::{Grid, Point};
use ctup_storage::{
    snapshot, CachedStore, CellLocalStore, DiskFaultPlan, FaultDisk, PlaceStore, RetryPolicy,
    StorageError,
};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A CLI failure with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError(e.to_string())
    }
}

fn io_err(context: &str, e: impl std::fmt::Display) -> CliError {
    CliError(format!("{context}: {e}"))
}

fn init_err(e: StorageError) -> CliError {
    CliError(format!("initializing the monitor: {e}"))
}

fn update_err(e: StorageError) -> CliError {
    CliError(format!("storage fault while applying an update: {e}"))
}

/// Shared workload/config flags of `run` and `generate`.
struct CommonParams {
    units: u32,
    places: u32,
    granularity: u32,
    seed: u64,
    config: CtupConfig,
}

fn common_params(flags: &Flags) -> Result<CommonParams, CliError> {
    let threshold: i64 = flags.get("threshold", i64::MIN)?;
    let k: usize = flags.get("k", 15)?;
    let mode = if threshold != i64::MIN {
        QueryMode::Threshold(threshold)
    } else {
        QueryMode::TopK(k)
    };
    let config = CtupConfig {
        mode,
        protection_radius: flags.get("radius", 0.1)?,
        delta: flags.get("delta", 6)?,
        doo_enabled: !flags.switch("no-doo"),
        purge_dechash_on_access: true,
    };
    Ok(CommonParams {
        units: flags.get("units", 150)?,
        places: flags.get("places", 15_000)?,
        granularity: flags.get("granularity", 10)?,
        seed: flags.get("seed", 0xC7)?,
        config,
    })
}

/// `ctup generate` — generate a place set and save it as a snapshot.
pub fn generate(args: Vec<String>, out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, &[])?;
    flags.reject_unknown(&["places", "seed", "rp-min", "rp-max", "rp-skew", "out"])?;
    let count: u32 = flags.get("places", 15_000)?;
    let seed: u64 = flags.get("seed", 0xC7)?;
    let config = PlaceGenConfig {
        count,
        rp_min: flags.get("rp-min", 1)?,
        rp_max: flags.get("rp-max", 8)?,
        rp_skew: flags.get("rp-skew", 1.0)?,
        ..PlaceGenConfig::default()
    };
    if config.rp_min > config.rp_max {
        return Err(CliError("--rp-min must not exceed --rp-max".into()));
    }
    let places = PlaceGenerator::new(config).generate(seed);
    let path = flags.get_str("out").unwrap_or("places.txt");
    snapshot::save_places(Path::new(path), &places)
        .map_err(|e| io_err(&format!("writing {path}"), e))?;
    writeln!(out, "wrote {} places to {path} (seed {seed})", places.len())
        .map_err(|e| io_err("stdout", e))?;
    Ok(())
}

/// Parallel-execution flags shared by `run`, `report` and `serve-metrics`.
struct EngineParams {
    /// Worker shards of the parallel engine; 1 runs the plain sequential
    /// algorithm.
    shards: u32,
    /// Page budget of the cell-read cache; 0 disables it.
    cell_cache_pages: u64,
}

fn engine_params(flags: &Flags) -> Result<EngineParams, CliError> {
    let shards: u32 = flags.get("shards", 1)?;
    if shards == 0 {
        return Err(CliError("--shards must be at least 1".into()));
    }
    Ok(EngineParams {
        shards,
        cell_cache_pages: flags.get("cell-cache-pages", 0)?,
    })
}

/// Wraps the store in the bounded LRU cell-read cache when a page budget
/// was given; a zero budget leaves the store untouched.
fn maybe_cache(store: Arc<dyn PlaceStore>, pages: u64) -> Arc<dyn PlaceStore> {
    if pages == 0 {
        store
    } else {
        Arc::new(CachedStore::new(store, pages))
    }
}

fn build_algorithm(
    name: &str,
    config: CtupConfig,
    store: Arc<dyn PlaceStore>,
    units: &[ctup_spatial::Point],
    shards: u32,
) -> Result<Box<dyn CtupAlgorithm>, CliError> {
    if shards > 1 {
        if name != "opt" {
            return Err(CliError(format!(
                "--shards {shards} requires the opt algorithm (got {name:?}): \
                 the sharded engine partitions OptCTUP workers"
            )));
        }
        return Ok(Box::new(
            ShardedCtup::new(config, store, units, shards).map_err(init_err)?,
        ));
    }
    Ok(match name {
        "opt" => Box::new(OptCtup::new(config, store, units).map_err(init_err)?),
        "basic" => Box::new(BasicCtup::new(config, store, units).map_err(init_err)?),
        "naive" => Box::new(NaiveRecompute::new(config, store, units).map_err(init_err)?),
        "naive-inc" => Box::new(NaiveIncremental::new(config, store, units).map_err(init_err)?),
        other => {
            return Err(CliError(format!(
                "unknown algorithm {other:?} (expected opt, basic, naive or naive-inc)"
            )))
        }
    })
}

/// Feeds one update's phase timings into the run-local latency histograms.
fn record_latency(latency: &mut LatencySnapshot, stats: &UpdateStats) {
    latency.update_maintain_nanos.record(stats.maintain_nanos);
    latency.update_access_nanos.record(stats.access_nanos);
    latency
        .update_total_nanos
        .record(stats.maintain_nanos.saturating_add(stats.access_nanos));
}

/// Builds the unified observability snapshot of a finished run: the
/// algorithm's metrics, the store's counters, and the latency histograms
/// with the store's disk-read distribution folded in.
fn unified_snapshot(
    alg: &dyn CtupAlgorithm,
    store: &Arc<dyn PlaceStore>,
    mut latency: LatencySnapshot,
) -> Snapshot {
    // Algorithms that record latency internally (the sharded engine's
    // per-shard channels) contribute it here; for them the run loop left
    // the external histograms empty.
    if let Some(internal) = alg.internal_latency() {
        latency.merge(&internal);
    }
    latency.disk_read_nanos.merge(&store.stats().read_latency());
    Snapshot::new(
        alg.name(),
        alg.metrics().clone(),
        store.stats().snapshot(),
        latency,
    )
}

/// Prints one `latency ...` line per non-empty histogram, with the tail
/// quantiles (p50/p90/p99/p999) every report carries.
fn report_latency(latency: &LatencySnapshot, out: &mut dyn Write) -> Result<(), CliError> {
    for (name, hist) in [
        ("update-total", &latency.update_total_nanos),
        ("update-maintain", &latency.update_maintain_nanos),
        ("update-access", &latency.update_access_nanos),
        ("checkpoint-write", &latency.checkpoint_write_nanos),
        ("disk-read", &latency.disk_read_nanos),
    ] {
        if hist.is_empty() {
            continue;
        }
        writeln!(out, "latency {name:<17} {}", summarize(hist)).map_err(|e| io_err("stdout", e))?;
    }
    Ok(())
}

fn render_result(alg: &dyn CtupAlgorithm, out: &mut dyn Write) -> Result<(), CliError> {
    let mut text = String::new();
    for entry in alg.result() {
        let _ = writeln!(
            text,
            "  place {:>6}  safety {:>4}",
            entry.place.0, entry.safety
        );
    }
    write!(out, "{text}").map_err(|e| io_err("stdout", e))?;
    Ok(())
}

fn report_costs(alg: &dyn CtupAlgorithm, out: &mut dyn Write) -> Result<(), CliError> {
    let m = alg.metrics();
    let n = m.updates_processed.max(1);
    writeln!(
        out,
        "costs: {:.1} us/update | {:.3} cells accessed/update | {} places maintained | {} result changes",
        (m.maintain_nanos + m.access_nanos) as f64 / n as f64 / 1e3,
        m.cells_accessed as f64 / n as f64,
        m.maintained_now,
        m.result_changes,
    )
    .map_err(|e| io_err("stdout", e))?;
    writeln!(
        out,
        "work: {} places loaded | lb +{}/-{} ({} suppressed by DOO) | {} cells darkened | {} maintained at peak | dechash {}",
        m.places_loaded,
        m.lb_increments,
        m.lb_decrements,
        m.lb_decrements_suppressed,
        m.cells_darkened,
        m.maintained_peak,
        m.dechash_len,
    )
    .map_err(|e| io_err("stdout", e))?;
    Ok(())
}

/// `ctup run` — generate a workload (or load places from a snapshot),
/// monitor it, and report the final result and costs.
pub fn run(args: Vec<String>, out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["events", "no-doo"])?;
    flags.reject_unknown(&[
        "algorithm",
        "updates",
        "units",
        "places",
        "granularity",
        "seed",
        "k",
        "delta",
        "radius",
        "threshold",
        "places-file",
        "events",
        "no-doo",
        "shards",
        "cell-cache-pages",
    ])?;
    let params = common_params(&flags)?;
    let engine = engine_params(&flags)?;
    let updates: usize = flags.get("updates", 1_000)?;
    let algorithm_name = flags.get_str("algorithm").unwrap_or("opt").to_string();

    // Workload: units always come from the road-network simulation; places
    // come from a snapshot file when given, otherwise they are generated.
    let mut workload = Workload::generate(WorkloadParams {
        num_units: params.units,
        places: PlaceGenConfig {
            count: params.places,
            ..PlaceGenConfig::default()
        },
        seed: params.seed,
        ..WorkloadParams::default()
    });
    let places = match flags.get_str("places-file") {
        Some(path) => snapshot::load_places(Path::new(path))
            .map_err(|e| io_err(&format!("loading {path}"), e))?,
        None => workload.places_vec(),
    };
    let num_places = places.len();
    let store: Arc<dyn PlaceStore> = maybe_cache(
        Arc::new(CellLocalStore::build(
            Grid::unit_square(params.granularity),
            places,
        )),
        engine.cell_cache_pages,
    );
    let unit_positions = workload.unit_positions();

    let mut alg = build_algorithm(
        &algorithm_name,
        params.config,
        Arc::clone(&store),
        &unit_positions,
        engine.shards,
    )?;
    writeln!(
        out,
        "monitoring {num_places} places with {} units using {} (init {:.1} ms)",
        params.units,
        alg.name(),
        alg.init_stats().wall.as_secs_f64() * 1e3
    )
    .map_err(|e| io_err("stdout", e))?;

    let mut latency = LatencySnapshot::default();
    // The sharded engine records per-shard latency itself; recording the
    // run loop's view as well would double-count every update.
    let records_internally = alg.internal_latency().is_some();
    if flags.switch("events") {
        let mut server = Server::new(ServerAdapter(alg));
        for update in workload.next_updates(updates) {
            let (events, stats) = server
                .ingest(LocationUpdate {
                    unit: UnitId(update.object),
                    new: update.to,
                })
                .map_err(update_err)?;
            if !records_internally {
                record_latency(&mut latency, &stats);
            }
            for event in events {
                let line = match event {
                    MonitorEvent::Entered { place, safety } => {
                        format!("ALERT place {} (safety {safety})", place.0)
                    }
                    MonitorEvent::Left { place } => format!("clear place {}", place.0),
                    MonitorEvent::SafetyChanged { place, old, new } => {
                        format!("place {} safety {old} -> {new}", place.0)
                    }
                };
                writeln!(out, "  {line}").map_err(|e| io_err("stdout", e))?;
            }
        }
        let alg = server.into_algorithm().0;
        finish_run(alg.as_ref(), &store, latency, out)?;
    } else {
        for update in workload.next_updates(updates) {
            let stats = alg
                .handle_update(LocationUpdate {
                    unit: UnitId(update.object),
                    new: update.to,
                })
                .map_err(update_err)?;
            if !records_internally {
                record_latency(&mut latency, &stats);
            }
        }
        finish_run(alg.as_ref(), &store, latency, out)?;
    }
    Ok(())
}

/// Newtype so a boxed algorithm can live inside `Server` (which is generic).
struct ServerAdapter(Box<dyn CtupAlgorithm>);

impl CtupAlgorithm for ServerAdapter {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn config(&self) -> &CtupConfig {
        self.0.config()
    }
    fn handle_update(
        &mut self,
        update: LocationUpdate,
    ) -> Result<ctup_core::UpdateStats, StorageError> {
        self.0.handle_update(update)
    }
    fn result(&self) -> Vec<ctup_core::TopKEntry> {
        self.0.result()
    }
    fn sk(&self) -> Option<ctup_core::Safety> {
        self.0.sk()
    }
    fn metrics(&self) -> &ctup_core::Metrics {
        self.0.metrics()
    }
    fn init_stats(&self) -> &ctup_core::InitStats {
        self.0.init_stats()
    }
    fn unit_position(&self, unit: UnitId) -> ctup_spatial::Point {
        self.0.unit_position(unit)
    }
    fn num_units(&self) -> usize {
        self.0.num_units()
    }
    fn internal_latency(&self) -> Option<LatencySnapshot> {
        self.0.internal_latency()
    }
}

fn finish_run(
    alg: &dyn CtupAlgorithm,
    store: &Arc<dyn PlaceStore>,
    latency: LatencySnapshot,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    writeln!(out, "final result:").map_err(|e| io_err("stdout", e))?;
    render_result(alg, out)?;
    report_costs(alg, out)?;
    let snapshot = unified_snapshot(alg, store, latency);
    report_latency(&snapshot.latency, out)?;
    Ok(())
}

/// `ctup run-opt` — like `run` with OptCTUP, plus checkpoint support.
pub fn run_opt(args: Vec<String>, out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["no-doo"])?;
    flags.reject_unknown(&[
        "updates",
        "units",
        "places",
        "granularity",
        "seed",
        "k",
        "delta",
        "radius",
        "threshold",
        "checkpoint-out",
        "no-doo",
    ])?;
    let params = common_params(&flags)?;
    let updates: usize = flags.get("updates", 1_000)?;
    let mut workload = Workload::generate(WorkloadParams {
        num_units: params.units,
        places: PlaceGenConfig {
            count: params.places,
            ..PlaceGenConfig::default()
        },
        seed: params.seed,
        ..WorkloadParams::default()
    });
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(params.granularity),
        workload.places_vec(),
    ));
    let unit_positions = workload.unit_positions();
    let mut alg =
        OptCtup::new(params.config, Arc::clone(&store), &unit_positions).map_err(init_err)?;
    let mut latency = LatencySnapshot::default();
    for update in workload.next_updates(updates) {
        let stats = alg
            .handle_update(LocationUpdate {
                unit: UnitId(update.object),
                new: update.to,
            })
            .map_err(update_err)?;
        record_latency(&mut latency, &stats);
    }
    finish_run(&alg, &store, latency, out)?;
    if let Some(path) = flags.get_str("checkpoint-out") {
        let file = File::create(path).map_err(|e| io_err(&format!("creating {path}"), e))?;
        alg.checkpoint()
            .write(BufWriter::new(file))
            .map_err(|e| io_err(&format!("writing {path}"), e))?;
        writeln!(out, "checkpoint written to {path}").map_err(|e| io_err("stdout", e))?;
    }
    Ok(())
}

/// `ctup resume` — restore an OptCTUP monitor from a checkpoint and keep
/// monitoring the (regenerated) update stream.
pub fn resume(args: Vec<String>, out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, &[])?;
    flags.reject_unknown(&[
        "checkpoint",
        "updates",
        "units",
        "places",
        "granularity",
        "seed",
        "skip",
    ])?;
    let path = flags
        .get_str("checkpoint")
        .ok_or_else(|| CliError("--checkpoint <file> is required".into()))?
        .to_string();
    let file = File::open(&path).map_err(|e| io_err(&format!("opening {path}"), e))?;
    let checkpoint = Checkpoint::read(BufReader::new(file))
        .map_err(|e| io_err(&format!("reading {path}"), e))?;

    let units: u32 = flags.get("units", checkpoint.unit_positions.len() as u32)?;
    if units as usize != checkpoint.unit_positions.len() {
        return Err(CliError(format!(
            "checkpoint has {} units but --units {units} was given",
            checkpoint.unit_positions.len()
        )));
    }
    let params = CommonParams {
        units,
        places: flags.get("places", 15_000)?,
        granularity: flags.get("granularity", 10)?,
        seed: flags.get("seed", 0xC7)?,
        config: checkpoint.config.clone(),
    };
    let mut workload = Workload::generate(WorkloadParams {
        num_units: params.units,
        places: PlaceGenConfig {
            count: params.places,
            ..PlaceGenConfig::default()
        },
        seed: params.seed,
        ..WorkloadParams::default()
    });
    // Fast-forward the deterministic stream to where the primary stopped.
    let skip: usize = flags.get("skip", 0)?;
    if skip > 0 {
        workload.next_updates(skip);
    }
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(params.granularity),
        workload.places_vec(),
    ));
    let mut alg = OptCtup::restore(checkpoint, Arc::clone(&store))
        .map_err(|e| CliError(format!("restoring {path}: {e}")))?;
    writeln!(out, "resumed from {path}; continuing monitoring").map_err(|e| io_err("stdout", e))?;
    let updates: usize = flags.get("updates", 1_000)?;
    let mut latency = LatencySnapshot::default();
    for update in workload.next_updates(updates) {
        let stats = alg
            .handle_update(LocationUpdate {
                unit: UnitId(update.object),
                new: update.to,
            })
            .map_err(update_err)?;
        record_latency(&mut latency, &stats);
    }
    finish_run(&alg, &store, latency, out)?;
    Ok(())
}

/// `ctup chaos` — run the supervised pipeline over a deliberately degraded
/// feed (seeded drops, duplicates, reordering, corruption, injected worker
/// panics) and a deliberately faulty disk (transient read errors, torn page
/// writes, bit flips), and report the resilience and storage counters next
/// to the surviving result. With `--state-dir` the checkpoints are durable;
/// `--kill-at` simulates a process death and `--recover` resumes from the
/// surviving slot and journal.
pub fn chaos(args: Vec<String>, out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &["no-doo", "recover", "tear-slot", "self-heal", "kill-repeat"],
    )?;
    flags.reject_unknown(&[
        "updates",
        "units",
        "places",
        "granularity",
        "seed",
        "k",
        "delta",
        "radius",
        "threshold",
        "no-doo",
        "drop",
        "dup",
        "reorder",
        "reorder-window",
        "corrupt",
        "delay",
        "max-delay",
        "fault-seed",
        "panic-at",
        "lease-ttl",
        "checkpoint-every",
        "max-restarts",
        "disk-faults",
        "disk-seed",
        "torn-writes",
        "bit-flips",
        "state-dir",
        "kill-at",
        "recover",
        "tear-slot",
        "flight-recorder",
        "flight-recorder-keep",
        "self-heal",
        "kill-repeat",
        "max-revives",
    ])?;
    let params = common_params(&flags)?;
    let updates: usize = flags.get("updates", 1_000)?;
    let panic_at: Vec<u64> = match flags.get_str("panic-at") {
        None => Vec::new(),
        Some(text) => text
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.parse()
                    .map_err(|e| CliError(format!("bad --panic-at entry {s:?}: {e}")))
            })
            .collect::<Result<_, _>>()?,
    };
    let plan = FaultPlan {
        seed: flags.get("fault-seed", params.seed ^ 0xFA17)?,
        drop_prob: flags.get("drop", 0.05)?,
        dup_prob: flags.get("dup", 0.02)?,
        reorder_prob: flags.get("reorder", 0.2)?,
        reorder_window: flags.get("reorder-window", 4)?,
        corrupt_prob: flags.get("corrupt", 0.02)?,
        delay_prob: flags.get("delay", 0.02)?,
        max_delay: flags.get("max-delay", 16)?,
        panic_at,
        disk: DiskFaultPlan {
            seed: flags.get("disk-seed", params.seed ^ 0xD15C)?,
            read_error_prob: flags.get("disk-faults", 0.0)?,
            torn_writes: flags.get("torn-writes", 0)?,
            bit_flips: flags.get("bit-flips", 0)?,
            ..DiskFaultPlan::default()
        },
    };

    let mut workload = Workload::generate(WorkloadParams {
        num_units: params.units,
        places: PlaceGenConfig {
            count: params.places,
            ..PlaceGenConfig::default()
        },
        seed: params.seed,
        ..WorkloadParams::default()
    });
    let grid = Grid::unit_square(params.granularity);
    // A faulty disk only when asked for: the plain chaos path keeps the
    // in-memory store so the link faults are isolated from the disk faults.
    let store: Arc<dyn PlaceStore> = if plan.disk.is_active() {
        let disk = FaultDisk::build(
            grid,
            workload.places_vec(),
            0,
            plan.disk.clone(),
            RetryPolicy::default(),
        );
        writeln!(
            out,
            "faulty disk: {} pages corrupted at build ({} cells unreadable), transient read error prob {}",
            disk.corrupted_pages().len(),
            disk.corrupted_cells().len(),
            plan.disk.read_error_prob,
        )
        .map_err(|e| io_err("stdout", e))?;
        Arc::new(disk)
    } else {
        Arc::new(CellLocalStore::build(grid, workload.places_vec()))
    };
    let unit_positions = workload.unit_positions();
    let clean: Vec<LocationUpdate> = workload
        .next_updates(updates)
        .into_iter()
        .map(|u| LocationUpdate {
            unit: UnitId(u.object),
            new: u.to,
        })
        .collect();

    // Corruption kinds cycle deterministically: NaN coordinate, position far
    // outside the space, unknown unit. All three must die at the ingest gate.
    let mut kind: u8 = 0;
    let (degraded, log) = plan.apply(stamp_stream(clean), move |report, _| {
        kind = kind.wrapping_add(1);
        match kind % 3 {
            0 => report.update.new = Point::new(f64::NAN, report.update.new.y),
            1 => report.update.new = Point::new(1e3, 1e3),
            _ => report.update.unit = UnitId(u32::MAX),
        }
    });
    writeln!(
        out,
        "degraded feed: {} of {updates} messages delivered ({} dropped, {} duplicated, {} reordered, {} delayed, {} corrupted)",
        log.emitted, log.dropped, log.duplicated, log.reordered, log.delayed, log.corrupted,
    )
    .map_err(|e| io_err("stdout", e))?;

    let lease_ttl: u64 = flags.get("lease-ttl", 0)?;
    let kill_at: u64 = flags.get("kill-at", 0)?;
    let state_dir = flags.get_str("state-dir").map(PathBuf::from);
    let resilience = ResilienceConfig {
        lease_ttl: (lease_ttl > 0).then_some(lease_ttl),
        checkpoint_every: flags.get("checkpoint-every", 256)?,
        max_restarts: flags.get("max-restarts", 8)?,
        panic_at: plan.panic_at.clone(),
        state_dir: state_dir.clone(),
        kill_at: (kill_at > 0).then_some(kill_at),
        tear_slot_on_kill: flags.switch("tear-slot"),
        flight_recorder_capacity: flags.get("flight-recorder", 256)?,
        flight_recorder_keep: flags.get("flight-recorder-keep", 4)?,
        spans: None,
    };
    if flags.switch("self-heal") {
        return chaos_self_heal(
            &flags,
            params.config,
            resilience,
            store,
            unit_positions,
            degraded,
            out,
        );
    }
    let pipeline = if flags.switch("recover") {
        let dir =
            state_dir.ok_or_else(|| CliError("--recover requires --state-dir <dir>".into()))?;
        writeln!(out, "recovering from {}", dir.display()).map_err(|e| io_err("stdout", e))?;
        SupervisedPipeline::recover_from_dir::<OptCtup>(
            &dir,
            Arc::clone(&store),
            resilience,
            degraded.len().max(1),
        )
        .map_err(|e| CliError(format!("recovering from {}: {e}", dir.display())))?
    } else {
        let monitor =
            OptCtup::new(params.config, Arc::clone(&store), &unit_positions).map_err(init_err)?;
        SupervisedPipeline::spawn(monitor, resilience, degraded.len().max(1))
    };
    for &report in &degraded {
        if pipeline.send(report).is_err() {
            break; // supervisor gave up; its final report still drains below
        }
    }
    let report = pipeline.shutdown();

    let r = &report.metrics.resilience;
    writeln!(
        out,
        "supervised run: {} reports in, {} effective updates, {} events out{}",
        report.reports_received,
        report.updates_processed,
        report.events_emitted,
        if report.gave_up {
            " — GAVE UP (restart budget exhausted)"
        } else if report.killed {
            " — KILLED (simulated process death; rerun with --recover)"
        } else {
            ""
        },
    )
    .map_err(|e| io_err("stdout", e))?;
    writeln!(out, "resilience counters:").map_err(|e| io_err("stdout", e))?;
    for (name, value) in [
        ("rejected non-finite", r.rejected_non_finite),
        ("rejected out-of-space", r.rejected_out_of_space),
        ("rejected unknown-unit", r.rejected_unknown_unit),
        ("stale dropped", r.stale_dropped),
        ("duplicates dropped", r.duplicates_dropped),
        ("lease expiries", r.lease_expiries),
        ("lease reinstates", r.lease_reinstates),
        ("worker panics", r.worker_panics),
        ("storage errors", r.storage_errors),
        ("worker restarts", r.worker_restarts),
        ("updates replayed", r.updates_replayed),
        ("checkpoints taken", r.checkpoints_taken),
        ("events suppressed", r.events_suppressed),
    ] {
        writeln!(out, "  {name:<22} {value}").map_err(|e| io_err("stdout", e))?;
    }
    let s = store.stats().snapshot();
    writeln!(out, "storage counters:").map_err(|e| io_err("stdout", e))?;
    for (name, value) in [
        ("cell reads", s.cell_reads),
        ("records read", s.records_read),
        ("pages read", s.pages_read),
        ("io nanos", s.io_nanos),
        ("read retries", s.read_retries),
        ("read giveups", s.read_giveups),
        ("corrupt pages", s.corrupt_pages),
        ("cache hits", s.cache_hits),
        ("cache misses", s.cache_misses),
        ("cache evictions", s.cache_evictions),
        ("cache prefetch hits", s.cache_prefetch_hits),
    ] {
        writeln!(out, "  {name:<22} {value}").map_err(|e| io_err("stdout", e))?;
    }
    writeln!(
        out,
        "  {:<22} {:.6}",
        "cache hit ratio",
        s.cache_hit_ratio()
    )
    .map_err(|e| io_err("stdout", e))?;
    report_latency(&report.latency, out)?;
    if let Some(path) = &report.flight_recorder_path {
        writeln!(out, "flight recorder dumped to {}", path.display())
            .map_err(|e| io_err("stdout", e))?;
    }
    writeln!(out, "final result:").map_err(|e| io_err("stdout", e))?;
    let mut text = String::new();
    for entry in &report.final_result {
        let _ = writeln!(
            text,
            "  place {:>6}  safety {:>4}",
            entry.place.0, entry.safety
        );
    }
    write!(out, "{text}").map_err(|e| io_err("stdout", e))?;
    Ok(())
}

/// The level-1 self-heal variant of `chaos`: the degraded feed is driven
/// through a loopback front door whose pump revives the killed engine
/// from the durable slots instead of parking in degraded mode. With
/// `--kill-repeat` every revived engine is re-armed to die again, so the
/// crash storm must trip the circuit breaker into sticky degraded mode.
fn chaos_self_heal(
    flags: &Flags,
    config: CtupConfig,
    resilience: ResilienceConfig,
    store: Arc<dyn PlaceStore>,
    unit_positions: Vec<Point>,
    degraded: Vec<StampedUpdate>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let dir = resilience
        .state_dir
        .clone()
        .ok_or_else(|| CliError("--self-heal requires --state-dir <dir>".into()))?;
    let kill_at = resilience
        .kill_at
        .ok_or_else(|| CliError("--self-heal requires --kill-at <n>".into()))?;
    let capacity = degraded.len().max(1);
    let monitor = OptCtup::new(config, Arc::clone(&store), &unit_positions).map_err(init_err)?;
    let initial = monitor.result();
    let pipeline = SupervisedPipeline::spawn(monitor, resilience.clone(), capacity);
    let sink = Arc::new(PipelineSink::new(pipeline, initial));
    let rearm_kill_every = flags.switch("kill-repeat").then_some(kill_at.max(1));
    let plan = RecoveryPlan {
        reviver: Arc::new(DirReviver {
            dir,
            store: Arc::clone(&store),
            resilience: ResilienceConfig {
                kill_at: None,
                ..resilience.clone()
            },
            capacity,
            rearm_kill_every,
            next_kill: std::sync::atomic::AtomicU64::new(
                kill_at.saturating_add(rearm_kill_every.unwrap_or(0)),
            ),
        }),
        config: RecoveryConfig {
            max_restarts: flags.get("max-revives", 3)?,
            backoff_base: std::time::Duration::from_millis(10),
            backoff_max: std::time::Duration::from_millis(100),
            ..RecoveryConfig::default()
        },
    };
    let server = IngestServer::spawn_with_recovery(
        "127.0.0.1:0",
        NetServerConfig::default(),
        sink,
        Some(plan),
    )
    .map_err(|e| io_err("binding the loopback front door", e))?;
    let mut client = FeedClient::new(
        Box::new(TcpDialer::new(server.local_addr())),
        ClientConfig::default(),
    );
    for &report in &degraded {
        client.enqueue(report);
    }
    client
        .drive(std::time::Duration::from_secs(120))
        .map_err(|e| CliError(format!("loopback feed: {e}")))?;
    let feed = client.finish();
    // Let an in-flight revival finish (or the storm trip the breaker)
    // before the final accounting is read.
    let settle = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while std::time::Instant::now() < settle {
        if !server.degraded() || server.breaker_tripped() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let tripped = server.breaker_tripped();
    let still_degraded = server.degraded();
    let n = server.shutdown();
    writeln!(
        out,
        "self-heal: {} offered, {} acked, {} shed; {} engine restarts, breaker tripped: {tripped}, degraded at exit: {still_degraded}",
        feed.enqueued,
        feed.acked,
        feed.shed_total(),
        n.engine_restarts,
    )
    .map_err(|e| io_err("stdout", e))?;
    Ok(())
}

/// Runs the deterministic workload selected by the shared flags and
/// returns the unified observability snapshot of the finished run (the
/// engine behind `report` and `serve-metrics`).
fn run_workload_for_snapshot(flags: &Flags) -> Result<Snapshot, CliError> {
    let params = common_params(flags)?;
    let engine = engine_params(flags)?;
    let updates: usize = flags.get("updates", 1_000)?;
    let algorithm_name = flags.get_str("algorithm").unwrap_or("opt").to_string();
    let mut workload = Workload::generate(WorkloadParams {
        num_units: params.units,
        places: PlaceGenConfig {
            count: params.places,
            ..PlaceGenConfig::default()
        },
        seed: params.seed,
        ..WorkloadParams::default()
    });
    let store: Arc<dyn PlaceStore> = maybe_cache(
        Arc::new(CellLocalStore::build(
            Grid::unit_square(params.granularity),
            workload.places_vec(),
        )),
        engine.cell_cache_pages,
    );
    let unit_positions = workload.unit_positions();
    let mut alg = build_algorithm(
        &algorithm_name,
        params.config,
        Arc::clone(&store),
        &unit_positions,
        engine.shards,
    )?;
    let records_internally = alg.internal_latency().is_some();
    let mut latency = LatencySnapshot::default();
    for update in workload.next_updates(updates) {
        let stats = alg
            .handle_update(LocationUpdate {
                unit: UnitId(update.object),
                new: update.to,
            })
            .map_err(update_err)?;
        if !records_internally {
            record_latency(&mut latency, &stats);
        }
    }
    Ok(unified_snapshot(alg.as_ref(), &store, latency))
}

const SNAPSHOT_FLAGS: &[&str] = &[
    "algorithm",
    "updates",
    "units",
    "places",
    "granularity",
    "seed",
    "k",
    "delta",
    "radius",
    "threshold",
    "no-doo",
    "shards",
    "cell-cache-pages",
];

/// `ctup report` — run a workload and emit the unified metrics snapshot
/// (every counter, gauge and latency histogram) as human-readable text,
/// JSON, or Prometheus exposition text.
pub fn report(args: Vec<String>, out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["no-doo"])?;
    let mut known: Vec<&str> = SNAPSHOT_FLAGS.to_vec();
    known.extend(["format", "out"]);
    flags.reject_unknown(&known)?;
    let snapshot = run_workload_for_snapshot(&flags)?;
    let format = flags.get_str("format").unwrap_or("text");
    let rendered = match format {
        "text" => snapshot.render_text(),
        "json" => {
            let mut json = snapshot.render_json();
            json.push('\n');
            json
        }
        "prom" => snapshot.render_prom(),
        other => {
            return Err(CliError(format!(
                "unknown --format {other:?} (expected text, json or prom)"
            )))
        }
    };
    match flags.get_str("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| io_err(&format!("writing {path}"), e))?;
            writeln!(out, "report written to {path}").map_err(|e| io_err("stdout", e))?;
        }
        None => write!(out, "{rendered}").map_err(|e| io_err("stdout", e))?,
    }
    Ok(())
}

/// `ctup serve-metrics` — run a workload, then serve its snapshot as
/// Prometheus exposition text on `/metrics` for `--serve-secs` seconds.
pub fn serve_metrics(args: Vec<String>, out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["no-doo"])?;
    let mut known: Vec<&str> = SNAPSHOT_FLAGS.to_vec();
    known.extend(["addr", "serve-secs"]);
    flags.reject_unknown(&known)?;
    let snapshot = run_workload_for_snapshot(&flags)?;
    let addr = flags.get_str("addr").unwrap_or("127.0.0.1:9184");
    let serve_secs: u64 = flags.get("serve-secs", 300)?;
    let server = MetricsServer::bind(addr).map_err(|e| io_err(&format!("binding {addr}"), e))?;
    server.publisher().publish(snapshot.render_prom());
    writeln!(
        out,
        "serving Prometheus metrics at http://{}/metrics for {serve_secs}s",
        server.local_addr()
    )
    .map_err(|e| io_err("stdout", e))?;
    out.flush().map_err(|e| io_err("stdout", e))?;
    std::thread::sleep(std::time::Duration::from_secs(serve_secs));
    server.shutdown();
    Ok(())
}

/// The level-1 self-heal reviver: rebuilds the engine sink from the
/// durable A/B slot and journal tail in `dir`. Used by the front door's
/// pump (behind `ctup serve --state-dir` and `ctup chaos --self-heal`)
/// when the engine dies.
struct DirReviver {
    dir: PathBuf,
    store: Arc<dyn PlaceStore>,
    resilience: ResilienceConfig,
    capacity: usize,
    /// When set, every revived engine is re-armed to die again this many
    /// effective updates past the previous kill point — a seeded crash
    /// storm that must trip the circuit breaker.
    rearm_kill_every: Option<u64>,
    /// The next kill point of the storm (effective sequence numbers are
    /// monotone across recoveries, so each revival must aim further out).
    next_kill: std::sync::atomic::AtomicU64,
}

impl EngineReviver for DirReviver {
    fn revive(&self) -> Result<Arc<dyn EngineSink>, String> {
        let mut resilience = self.resilience.clone();
        if let Some(step) = self.rearm_kill_every {
            let at = self
                .next_kill
                .fetch_add(step, std::sync::atomic::Ordering::SeqCst);
            resilience.kill_at = Some(at);
        }
        let pipeline = SupervisedPipeline::recover_from_dir::<OptCtup>(
            &self.dir,
            Arc::clone(&self.store),
            resilience,
            self.capacity,
        )
        .map_err(|e| format!("recovering from {}: {e}", self.dir.display()))?;
        // Pipeline events only carry changes, so the sink is seeded with
        // the state the replayed engine resumes from: the result after
        // the journal tail, not the checkpoint's.
        Ok(Arc::new(PipelineSink::from_pipeline(pipeline)))
    }
}

/// Dials through a [`ChaosStream`] so `ctup feed` can rehearse faulty
/// links: each attempt's behaviour comes off the seeded plan.
struct ChaosDialer {
    addr: std::net::SocketAddr,
    plan: NetFaultPlan,
    attempt: u64,
}

impl Dialer for ChaosDialer {
    fn dial(&mut self) -> std::io::Result<Box<dyn Conn>> {
        let script = self.plan.script(self.attempt);
        self.attempt += 1;
        let stream =
            std::net::TcpStream::connect_timeout(&self.addr, std::time::Duration::from_secs(2))?;
        stream.set_read_timeout(Some(std::time::Duration::from_millis(25)))?;
        stream.set_write_timeout(Some(std::time::Duration::from_millis(25)))?;
        let _ = stream.set_nodelay(true);
        Ok(Box::new(ChaosStream::new(stream, script)))
    }
}

/// Prints the front door's full accounting: every [`NetStatsSnapshot`]
/// counter and gauge, so nothing the door does is invisible from the CLI.
fn report_net(n: &NetStatsSnapshot, out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(out, "net counters:").map_err(|e| io_err("stdout", e))?;
    for (name, value) in [
        ("connections accepted", n.connections_accepted),
        ("connections rejected", n.connections_rejected),
        ("sessions opened", n.sessions_opened),
        ("sessions resumed", n.sessions_resumed),
        ("sessions evicted", n.sessions_evicted),
        ("frames received", n.frames_received),
        ("frames malformed", n.frames_malformed),
        ("partial disconnects", n.partial_disconnects),
        ("reports accepted", n.reports_accepted),
        ("replays suppressed", n.replays_suppressed),
        ("shed: queue full", n.shed_queue_full),
        ("shed: deadline", n.shed_deadline_exceeded),
        ("shed: session quota", n.shed_session_quota),
        ("shed: engine degraded", n.shed_engine_degraded),
        ("shed total", n.shed_total()),
        ("degraded entries", n.degraded_entries),
        ("snapshots pushed", n.snapshots_pushed),
        ("engine restarts", n.engine_restarts),
        ("failovers", n.failovers),
        ("queue depth", n.queue_depth),
        ("sessions active", n.sessions_active),
        ("degraded", u64::from(n.degraded)),
        ("degraded since ms", n.degraded_since_ms),
        ("epoch", n.epoch),
        ("spans dropped", n.spans_dropped),
        ("traces sampled", n.traces_sampled),
        ("exemplars", n.exemplars),
    ] {
        writeln!(out, "  {name:<22} {value}").map_err(|e| io_err("stdout", e))?;
    }
    if !n.ingest_wait_nanos.is_empty() {
        writeln!(
            out,
            "  {:<22} {}",
            "ingest wait",
            summarize(&n.ingest_wait_nanos)
        )
        .map_err(|e| io_err("stdout", e))?;
    }
    for e in &n.ingest_wait_exemplars {
        writeln!(
            out,
            "  exemplar: bucket {:>2}  wait {:>10}ns  trace {:#018x}",
            e.bucket, e.wait_nanos, e.trace
        )
        .map_err(|e| io_err("stdout", e))?;
    }
    Ok(())
}

/// `ctup serve` — stand up the networked ingest front door: a sessioned
/// wire-protocol server feeding a supervised OptCTUP pipeline, with the
/// metrics endpoint (`/metrics` + `/healthz`) alongside. `--updates N`
/// first drives N workload updates through a loopback feed client, so the
/// served numbers (and the exactly-once accounting printed at shutdown)
/// are non-trivial; `--serve-secs 0` exits right after.
pub fn serve(args: Vec<String>, out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["no-doo"])?;
    flags.reject_unknown(&[
        "units",
        "places",
        "granularity",
        "seed",
        "k",
        "threshold",
        "delta",
        "radius",
        "no-doo",
        "updates",
        "addr",
        "metrics-addr",
        "serve-secs",
        "queue-capacity",
        "session-quota",
        "ingest-deadline-ms",
        "snapshot-push-ms",
        "kill-at",
        "state-dir",
        "checkpoint-every",
        "epoch",
        "standby",
        "span-dump",
        "trace-every",
    ])?;
    let params = common_params(&flags)?;
    let updates: usize = flags.get("updates", 0)?;
    let addr = flags.get_str("addr").unwrap_or("127.0.0.1:9710");
    let metrics_addr = flags.get_str("metrics-addr").unwrap_or("127.0.0.1:9184");
    let serve_secs: u64 = flags.get("serve-secs", 300)?;
    let kill_at: u64 = flags.get("kill-at", 0)?;
    let state_dir = flags.get_str("state-dir").map(PathBuf::from);
    let epoch: u64 = flags.get("epoch", 1)?;

    let mut net_config = NetServerConfig::default();
    net_config.admission.queue_capacity = flags.get("queue-capacity", 4096)?;
    net_config.admission = net_config.admission.normalized();
    net_config.session.session_quota = flags.get("session-quota", 256)?;
    net_config.admission.ingest_deadline =
        std::time::Duration::from_millis(flags.get("ingest-deadline-ms", 2_000)?);
    net_config.snapshot_push_interval =
        std::time::Duration::from_millis(flags.get("snapshot-push-ms", 250)?);
    net_config.epoch = epoch;
    net_config.state_dir = state_dir.clone();

    // `--span-dump FILE` arms end-to-end causal tracing: one shared sink
    // for the door, the engine worker and the loopback feed, so a report's
    // client-send → … → snapshot-publish chain lands in one JSONL dump.
    let span_dump = flags.get_str("span-dump").map(PathBuf::from);
    let trace_every: u64 = flags.get("trace-every", 1)?;
    let spans: Option<Arc<SpanSink>> = span_dump.as_ref().map(|_| Arc::new(SpanSink::new(65_536)));
    net_config.spans = spans.clone();
    net_config.trace_sample_every = trace_every;
    net_config.trace_seed = params.seed;

    let mut workload = Workload::generate(WorkloadParams {
        num_units: params.units,
        places: PlaceGenConfig {
            count: params.places,
            ..PlaceGenConfig::default()
        },
        seed: params.seed,
        ..WorkloadParams::default()
    });
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(
        Grid::unit_square(params.granularity),
        workload.places_vec(),
    ));
    let unit_positions = workload.unit_positions();

    // `--standby <primary>`: no local engine of our own yet — bootstrap
    // from the primary's shipped checkpoint, tail its WAL, and take over
    // (behind the epoch fence) if it goes dark.
    if flags.get_str("standby").is_some() {
        return serve_standby(&flags, net_config, state_dir, store, spans, span_dump, out);
    }

    let monitor =
        OptCtup::new(params.config, Arc::clone(&store), &unit_positions).map_err(init_err)?;
    let initial = monitor.result();
    let resilience = ResilienceConfig {
        kill_at: (kill_at > 0).then_some(kill_at),
        state_dir: state_dir.clone(),
        checkpoint_every: flags.get("checkpoint-every", 256)?,
        spans: spans.clone(),
        ..ResilienceConfig::default()
    };
    let pipeline = SupervisedPipeline::spawn(monitor, resilience.clone(), 4096);
    let sink = Arc::new(PipelineSink::new(pipeline, initial));
    let engine: Arc<dyn EngineSink> = Arc::clone(&sink) as Arc<dyn EngineSink>;
    // With durable state the door revives a dead engine in-process
    // (level-1 self-heal) instead of parking in degraded mode.
    let recovery = state_dir.as_ref().map(|dir| RecoveryPlan {
        reviver: Arc::new(DirReviver {
            dir: dir.clone(),
            store: Arc::clone(&store),
            resilience: ResilienceConfig {
                kill_at: None,
                ..resilience.clone()
            },
            capacity: 4096,
            rearm_kill_every: None,
            next_kill: std::sync::atomic::AtomicU64::new(0),
        }),
        config: RecoveryConfig::default(),
    });
    let server = IngestServer::spawn_with_recovery(addr, net_config, engine, recovery)
        .map_err(|e| io_err(&format!("binding ingest address {addr}"), e))?;
    let metrics = MetricsServer::bind(metrics_addr)
        .map_err(|e| io_err(&format!("binding metrics address {metrics_addr}"), e))?;
    writeln!(
        out,
        "ingest front door at {} | metrics at http://{}/metrics | health at /healthz",
        server.local_addr(),
        metrics.local_addr(),
    )
    .map_err(|e| io_err("stdout", e))?;
    out.flush().map_err(|e| io_err("stdout", e))?;

    if updates > 0 {
        let clean: Vec<LocationUpdate> = workload
            .next_updates(updates)
            .into_iter()
            .map(|u| LocationUpdate {
                unit: UnitId(u.object),
                new: u.to,
            })
            .collect();
        // The loopback feed shares the server's sink, so client-send spans
        // land in the same dump (and on the same clock anchor) as the rest
        // of the pipeline — this is what makes single-process end-to-end
        // analysis possible.
        let client_config = ClientConfig {
            spans: spans.clone(),
            trace_sample_every: trace_every,
            trace_seed: params.seed,
            ..ClientConfig::default()
        };
        let mut client =
            FeedClient::new(Box::new(TcpDialer::new(server.local_addr())), client_config);
        for &report in &stamp_stream(clean) {
            client.enqueue(report);
        }
        client
            .drive(std::time::Duration::from_secs(120))
            .map_err(|e| CliError(format!("loopback feed: {e}")))?;
        let stats = client.finish();
        writeln!(
            out,
            "loopback feed: {} offered, {} acked, {} shed, {} reconnects",
            stats.enqueued,
            stats.acked,
            stats.shed_total(),
            stats.reconnects,
        )
        .map_err(|e| io_err("stdout", e))?;
    }

    // Serve loop: refresh the exposition every second — the unified
    // snapshot (storage + net sections live; algorithm metrics arrive at
    // shutdown) plus the health body with the degraded flag.
    let started = std::time::Instant::now();
    loop {
        let snapshot = Snapshot::new(
            "opt-net",
            ctup_core::metrics::Metrics::default(),
            store.stats().snapshot(),
            LatencySnapshot::default(),
        )
        .with_net(server.stats().snapshot());
        metrics.publisher().publish(snapshot.render_prom());
        metrics.publisher().publish_health(server.health_body());
        if started.elapsed() >= std::time::Duration::from_secs(serve_secs) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(
            1_000.min(serve_secs.saturating_mul(1_000)),
        ));
    }

    let net = server.shutdown();
    metrics.shutdown();
    report_net(&net, out)?;
    if net.engine_restarts > 0 {
        writeln!(
            out,
            "engine self-healed {} time(s) from {}; the accounting below covers the first engine only",
            net.engine_restarts,
            state_dir
                .as_ref()
                .map(|d| d.display().to_string())
                .unwrap_or_default(),
        )
        .map_err(|e| io_err("stdout", e))?;
    }
    // The sink's only other holders were the server threads; shutdown()
    // joined them, but a straggling handler may still be dropping its
    // clone, so wait bounded rather than spinning forever.
    let mut sink = sink;
    let unwrap_deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let pipeline = loop {
        match Arc::try_unwrap(sink) {
            Ok(inner) => break inner.into_pipeline(),
            Err(back) => {
                if std::time::Instant::now() >= unwrap_deadline {
                    return Err(CliError(
                        "a connection handler failed to release the engine sink".into(),
                    ));
                }
                sink = back;
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    };
    let report = pipeline.shutdown();
    let r = &report.metrics.resilience;
    writeln!(
        out,
        "exactly-once: {} accepted at the door, {} applied by the engine, {} duplicates dropped at the gate",
        net.reports_accepted, report.updates_processed, r.duplicates_dropped,
    )
    .map_err(|e| io_err("stdout", e))?;
    if report.killed {
        writeln!(
            out,
            "engine was killed (--kill-at); the door degraded gracefully"
        )
        .map_err(|e| io_err("stdout", e))?;
    }
    writeln!(out, "final result:").map_err(|e| io_err("stdout", e))?;
    let mut text = String::new();
    for entry in &report.final_result {
        let _ = writeln!(
            text,
            "  place {:>6}  safety {:>4}",
            entry.place.0, entry.safety
        );
    }
    write!(out, "{text}").map_err(|e| io_err("stdout", e))?;
    // Dump spans last: the engine worker keeps recording until
    // `pipeline.shutdown()` above, so an earlier dump would truncate the
    // apply/publish tails of the final traces.
    dump_spans(span_dump.as_deref(), spans.as_deref(), out)?;
    Ok(())
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
    writeln!(
        out,
        "span dump: {count} span(s) ({} sampled trace(s), {} dropped) written to {}",
        sink.sampled(),
        sink.dropped(),
        path.display()
    )
    .map_err(|e| io_err("stdout", e))?;
    Ok(())
}

/// The `--standby` arm of `serve`: follow the primary over the
/// replication stream, publish the follower's health (and, once promoted,
/// the promoted front door's health and metrics), and exit after
/// `--serve-secs`.
fn serve_standby(
    flags: &Flags,
    net_config: NetServerConfig,
    state_dir: Option<PathBuf>,
    store: Arc<dyn PlaceStore>,
    spans: Option<Arc<SpanSink>>,
    span_dump: Option<PathBuf>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let primary = flags.get_str("standby").unwrap_or_default();
    let primary_addr: std::net::SocketAddr = primary
        .parse()
        .map_err(|e| CliError(format!("bad --standby {primary:?}: {e}")))?;
    let addr = flags.get_str("addr").unwrap_or("127.0.0.1:0");
    let metrics_addr = flags.get_str("metrics-addr").unwrap_or("127.0.0.1:9184");
    let serve_secs: u64 = flags.get("serve-secs", 300)?;
    let standby_config = StandbyConfig {
        primary_ingest: primary_addr,
        serve_addr: addr.to_string(),
        net: net_config,
        resilience: ResilienceConfig {
            state_dir,
            // The standby's halves of replicated traces (standby-apply,
            // and the full pipeline once promoted) share the same sink.
            spans: spans.clone(),
            ..ResilienceConfig::default()
        },
        ..StandbyConfig::default()
    };
    let standby = StandbyServer::spawn::<OptCtup>(standby_config, Arc::clone(&store));
    let metrics = MetricsServer::bind(metrics_addr)
        .map_err(|e| io_err(&format!("binding metrics address {metrics_addr}"), e))?;
    writeln!(
        out,
        "warm standby following {primary_addr} | health at http://{}/healthz",
        metrics.local_addr(),
    )
    .map_err(|e| io_err("stdout", e))?;
    out.flush().map_err(|e| io_err("stdout", e))?;

    let started = std::time::Instant::now();
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
                    let snapshot = Snapshot::new(
                        "opt-net",
                        ctup_core::metrics::Metrics::default(),
                        store.stats().snapshot(),
                        LatencySnapshot::default(),
                    )
                    .with_net(net);
                    metrics.publisher().publish(snapshot.render_prom());
                }
                if !announced {
                    if let Some(promoted) = standby.promoted_addr() {
                        writeln!(
                            out,
                            "promoted: ingest front door at {promoted} (epoch {})",
                            status.epoch
                        )
                        .map_err(|e| io_err("stdout", e))?;
                        out.flush().map_err(|e| io_err("stdout", e))?;
                        announced = true;
                    }
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
        if started.elapsed() >= std::time::Duration::from_secs(serve_secs) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
    }
    let status = standby.status();
    writeln!(
        out,
        "standby exiting: epoch {}, {} wal appends applied, {} stale frames rejected",
        status.epoch, status.wal_applied, status.stale_rejected
    )
    .map_err(|e| io_err("stdout", e))?;
    standby.shutdown();
    metrics.shutdown();
    dump_spans(span_dump.as_deref(), spans.as_deref(), out)?;
    Ok(())
}

/// `ctup feed` — drive a deterministic workload into a running `ctup
/// serve` instance over the wire protocol, optionally through scripted
/// link faults (refused dials, mid-frame deaths, slowloris trickles) to
/// rehearse reconnect-and-replay against a live server.
pub fn feed(args: Vec<String>, out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, &[])?;
    flags.reject_unknown(&[
        "addr",
        "updates",
        "units",
        "places",
        "granularity",
        "seed",
        "rate-hz",
        "max-in-flight",
        "max-attempts",
        "refuse-per-mille",
        "die-per-mille",
        "slow-per-mille",
        "net-seed",
        "deadline-secs",
        "failover",
        "span-dump",
        "trace-every",
    ])?;
    let addr_raw = flags.get_str("addr").unwrap_or("127.0.0.1:9710");
    let addr: std::net::SocketAddr = addr_raw
        .parse()
        .map_err(|e| CliError(format!("bad --addr {addr_raw:?}: {e}")))?;
    let updates: usize = flags.get("updates", 1_000)?;
    let units: u32 = flags.get("units", 150)?;
    let places: u32 = flags.get("places", 15_000)?;
    let granularity: u32 = flags.get("granularity", 10)?;
    let seed: u64 = flags.get("seed", 0xC7)?;
    let rate_hz: f64 = flags.get("rate-hz", 0.0)?;
    let deadline_secs: u64 = flags.get("deadline-secs", 120)?;

    // `--span-dump` records this feeder's client-send spans (its halves of
    // the traces; the server records the rest in its own dump). The trace
    // ids stamped here use the workload seed, so the server-side spans of
    // a `serve --updates 0` + `feed` pair correlate by id.
    let span_dump = flags.get_str("span-dump").map(PathBuf::from);
    let spans: Option<Arc<SpanSink>> = span_dump.as_ref().map(|_| Arc::new(SpanSink::new(65_536)));
    let mut client_config = ClientConfig {
        max_in_flight: flags.get("max-in-flight", 128)?,
        spans: spans.clone(),
        trace_sample_every: flags.get("trace-every", 1)?,
        trace_seed: seed,
        ..ClientConfig::default()
    };
    client_config.backoff.max_attempts = flags.get("max-attempts", 8)?;
    let plan = NetFaultPlan {
        seed: flags.get("net-seed", 0xc4a0_5badu64)?,
        refuse_per_mille: flags.get("refuse-per-mille", 0)?,
        die_per_mille: flags.get("die-per-mille", 0)?,
        slow_per_mille: flags.get("slow-per-mille", 0)?,
        ..NetFaultPlan::default()
    };

    // The same workload parameters as the server's: the gate validates
    // unit ids and the space, so a mismatched feed is rejected, loudly.
    let mut workload = Workload::generate(WorkloadParams {
        num_units: units,
        places: PlaceGenConfig {
            count: places,
            ..PlaceGenConfig::default()
        },
        seed,
        ..WorkloadParams::default()
    });
    let _ = granularity; // the feeder never touches the store
    let clean: Vec<LocationUpdate> = workload
        .next_updates(updates)
        .into_iter()
        .map(|u| LocationUpdate {
            unit: UnitId(u.object),
            new: u.to,
        })
        .collect();
    let stamped = stamp_stream(clean);

    // `--failover` walks a primary-then-standbys address list on every
    // reconnect; the link-fault flags script per-attempt behaviour on one
    // address, so the two are mutually exclusive.
    let dialer: Box<dyn Dialer> = match flags.get_str("failover") {
        Some(list) => {
            if plan.refuse_per_mille > 0 || plan.die_per_mille > 0 || plan.slow_per_mille > 0 {
                return Err(CliError(
                    "--failover cannot be combined with the link-fault flags".into(),
                ));
            }
            let mut addrs = vec![addr];
            for part in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                addrs.push(
                    part.parse()
                        .map_err(|e| CliError(format!("bad --failover entry {part:?}: {e}")))?,
                );
            }
            Box::new(FailoverDialer::new(addrs))
        }
        None => Box::new(ChaosDialer {
            addr,
            plan,
            attempt: 0,
        }),
    };
    let mut client = FeedClient::new(dialer, client_config);
    let overall = std::time::Duration::from_secs(deadline_secs);
    if rate_hz > 0.0 {
        // Paced submission: enqueue on schedule, interleaving protocol
        // work, then drain whatever is still outstanding.
        let gap = std::time::Duration::from_secs_f64(1.0 / rate_hz);
        let started = std::time::Instant::now();
        for (i, &report) in stamped.iter().enumerate() {
            let due = started + gap.mul_f64(i as f64);
            while std::time::Instant::now() < due {
                client
                    .step(std::time::Duration::from_millis(250))
                    .map_err(|e| CliError(format!("feeding {addr}: {e}")))?;
            }
            client.enqueue(report);
        }
    } else {
        for &report in &stamped {
            client.enqueue(report);
        }
    }
    client
        .drive(overall)
        .map_err(|e| CliError(format!("feeding {addr}: {e}")))?;
    let stats = client.finish();

    let mut by_reason = [0u64; 4];
    for shed in &stats.sheds {
        by_reason[usize::from(shed.reason.code())] += 1;
    }
    writeln!(
        out,
        "feed: {} offered, {} acked, {} shed, {} reconnects, {} frames sent, {} snapshots received",
        stats.enqueued,
        stats.acked,
        stats.shed_total(),
        stats.reconnects,
        stats.frames_sent,
        stats.snapshots_received,
    )
    .map_err(|e| io_err("stdout", e))?;
    if stats.shed_total() > 0 {
        writeln!(
            out,
            "sheds by reason: {} queue full, {} deadline, {} session quota, {} engine degraded",
            by_reason[0], by_reason[1], by_reason[2], by_reason[3],
        )
        .map_err(|e| io_err("stdout", e))?;
    }
    dump_spans(span_dump.as_deref(), spans.as_deref(), out)?;
    Ok(())
}

/// One trace reconstructed from a span dump: its canonical-chain spans in
/// pipeline order (longest shard picked for the fan-out stage), the
/// measured end-to-end window, and the stages it never reached.
struct TraceSummary {
    trace: u64,
    /// End-to-end latency: first chain-span start to last chain-span end.
    e2e: u64,
    /// Canonical-chain spans present, in chain order.
    chain: Vec<Span>,
    /// Canonical-chain stages with no span in the dump.
    missing: Vec<Stage>,
    /// Off-chain spans of this trace (wal-append, checkpoint, shed, …).
    extra: Vec<Span>,
}

impl TraceSummary {
    fn complete(&self) -> bool {
        self.missing.is_empty()
    }
}

/// Reconstructs one trace from its spans. For the fan-out stage
/// (`shard-phase`) the *slowest* shard is put on the critical path —
/// the merge barrier waits for exactly that one.
fn summarize_trace(trace: u64, tspans: &[Span]) -> TraceSummary {
    let mut chain = Vec::new();
    let mut missing = Vec::new();
    for stage in Stage::CANONICAL_CHAIN {
        let pick = tspans
            .iter()
            .filter(|s| s.stage == stage)
            .max_by_key(|s| s.duration());
        match pick {
            Some(s) => chain.push(*s),
            None => missing.push(stage),
        }
    }
    let window: Vec<&Span> = if chain.is_empty() {
        tspans.iter().collect()
    } else {
        chain.iter().collect()
    };
    let start = window.iter().map(|s| s.start).min().unwrap_or(0);
    let end = window.iter().map(|s| s.end).max().unwrap_or(0);
    let extra = tspans
        .iter()
        .filter(|s| !Stage::CANONICAL_CHAIN.contains(&s.stage))
        .copied()
        .collect();
    TraceSummary {
        trace,
        e2e: end.saturating_sub(start),
        chain,
        missing,
        extra,
    }
}

/// `ctup trace` — offline analysis of a causal span dump (`--span-dump`
/// JSONL from `serve` or `feed`): per-stage latency breakdown across all
/// traces, the critical path of the slowest N traces (with the stage-sum
/// vs end-to-end accounting), and orphan/inversion diagnostics.
pub fn trace(args: Vec<String>, out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, &[])?;
    flags.reject_unknown(&["input", "slowest"])?;
    let input = flags
        .get_str("input")
        .ok_or_else(|| CliError("trace requires --input FILE (a --span-dump JSONL)".into()))?;
    let slowest: usize = flags.get("slowest", 10)?;
    let text =
        std::fs::read_to_string(input).map_err(|e| io_err(&format!("reading {input}"), e))?;
    render_trace_report(&text, input, slowest, out)
}

/// The body of `ctup trace`, on an in-memory dump (testable without I/O).
fn render_trace_report(
    text: &str,
    input: &str,
    slowest: usize,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    // Deterministic span ids make replay idempotent: a retransmitted
    // report re-records the *same* span id, so folding by id (last line
    // wins) collapses replays instead of double-counting them.
    let mut by_id: std::collections::BTreeMap<u64, Span> = std::collections::BTreeMap::new();
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let s = Span::parse_jsonl(line).map_err(|e| CliError(format!("{input}:{}: {e}", i + 1)))?;
        lines += 1;
        by_id.insert(s.span, s);
    }
    if by_id.is_empty() {
        return Err(CliError(format!("{input}: no spans to analyze")));
    }
    let spans: Vec<Span> = by_id.values().copied().collect();
    let mut traces: std::collections::BTreeMap<u64, Vec<Span>> = std::collections::BTreeMap::new();
    for s in &spans {
        traces.entry(s.trace).or_default().push(*s);
    }
    writeln!(
        out,
        "{} span(s) ({} line(s)) across {} trace(s)",
        spans.len(),
        lines,
        traces.len()
    )
    .map_err(|e| io_err("stdout", e))?;

    writeln!(out, "stage latency breakdown:").map_err(|e| io_err("stdout", e))?;
    for stage in Stage::ALL {
        let mut d: Vec<u64> = spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(Span::duration)
            .collect();
        if d.is_empty() {
            continue;
        }
        d.sort_unstable();
        writeln!(
            out,
            "  {:<16} count {:>6}  p50 {:>12}ns  max {:>12}ns",
            stage.label(),
            d.len(),
            d[d.len() / 2],
            d[d.len() - 1],
        )
        .map_err(|e| io_err("stdout", e))?;
    }

    let mut summaries: Vec<TraceSummary> = traces
        .iter()
        .map(|(t, ts)| summarize_trace(*t, ts))
        .collect();
    summaries.sort_by(|a, b| b.e2e.cmp(&a.e2e).then(a.trace.cmp(&b.trace)));
    writeln!(
        out,
        "slowest {} trace(s) by end-to-end latency:",
        slowest.min(summaries.len())
    )
    .map_err(|e| io_err("stdout", e))?;
    for t in summaries.iter().take(slowest) {
        writeln!(
            out,
            "trace {:#018x}: end-to-end {}ns{}",
            t.trace,
            t.e2e,
            if t.complete() {
                " — complete causal chain"
            } else {
                ""
            }
        )
        .map_err(|e| io_err("stdout", e))?;
        let mut prev_end: Option<u64> = None;
        let mut sum = 0u64;
        let mut gaps = 0u64;
        for s in &t.chain {
            sum = sum.saturating_add(s.duration());
            // The wait between one stage closing and the next opening:
            // scheduling/transit time the chain attributes to no stage,
            // printed inline so the chain still tiles the whole window.
            let gap = prev_end.map_or(0, |p| s.start.saturating_sub(p));
            gaps = gaps.saturating_add(gap);
            let label = if s.stage == Stage::ShardPhase && s.aux != 0 {
                format!("{}[{}]", s.stage.label(), s.aux)
            } else {
                s.stage.label().to_string()
            };
            if gap > 0 {
                writeln!(out, "  {label:<16} {:>12}ns  (+{gap}ns gap)", s.duration())
            } else {
                writeln!(out, "  {label:<16} {:>12}ns", s.duration())
            }
            .map_err(|e| io_err("stdout", e))?;
            prev_end = Some(prev_end.map_or(s.end, |p| p.max(s.end)));
        }
        for s in &t.extra {
            writeln!(
                out,
                "  {:<16} {:>12}ns  (off critical path)",
                s.stage.label(),
                s.duration()
            )
            .map_err(|e| io_err("stdout", e))?;
        }
        if t.complete() && t.e2e > 0 {
            // Integer per-mille keeps the arithmetic exact. Stages plus
            // the attributed gaps tile the window, so the total sits at
            // (or within rounding of) 100% — anything materially off
            // means overlapping or missing spans.
            let per_mille = sum.saturating_mul(1000) / t.e2e;
            let tiled = sum.saturating_add(gaps).saturating_mul(1000) / t.e2e;
            writeln!(
                out,
                "  stage sum {sum}ns = {}.{}% of end-to-end \
                 (+{gaps}ns attributed gaps = {}.{}%)",
                per_mille / 10,
                per_mille % 10,
                tiled / 10,
                tiled % 10
            )
            .map_err(|e| io_err("stdout", e))?;
        } else if !t.missing.is_empty() {
            let names: Vec<&str> = t.missing.iter().map(|s| s.label()).collect();
            writeln!(out, "  chain broken — missing: {}", names.join(", "))
                .map_err(|e| io_err("stdout", e))?;
        }
    }

    // Diagnostics: a parent id that never appears in the dump is a hole
    // in the causal tree (unless the trace is a lone cross-process half);
    // a parent starting after its child is a clock inversion.
    let mut orphans = 0usize;
    let mut inversions = 0usize;
    for s in &spans {
        if s.parent == 0 {
            continue;
        }
        match by_id.get(&s.parent) {
            None => {
                if traces.get(&s.trace).is_some_and(|ts| ts.len() > 1) {
                    orphans += 1;
                    writeln!(
                        out,
                        "orphan: {} span {:#x} of trace {:#018x} (parent {:#x} not in dump)",
                        s.stage.label(),
                        s.span,
                        s.trace,
                        s.parent
                    )
                    .map_err(|e| io_err("stdout", e))?;
                }
            }
            Some(p) => {
                if p.start > s.start {
                    inversions += 1;
                    writeln!(
                        out,
                        "inversion: {} starts {}ns before its parent {} (trace {:#018x})",
                        s.stage.label(),
                        p.start - s.start,
                        p.stage.label(),
                        s.trace
                    )
                    .map_err(|e| io_err("stdout", e))?;
                }
            }
        }
    }
    writeln!(
        out,
        "diagnostics: {orphans} orphan(s), {inversions} inversion(s)"
    )
    .map_err(|e| io_err("stdout", e))?;
    Ok(())
}

/// Usage text.
pub fn usage() -> &'static str {
    "ctup — Continuous Top-k Unsafe Places monitoring

USAGE:
  ctup generate [--places N] [--seed S] [--rp-min N] [--rp-max N] [--rp-skew F] [--out FILE]
  ctup run      [--algorithm opt|basic|naive|naive-inc] [--updates N] [--units N]
                [--places N | --places-file FILE] [--granularity G] [--seed S]
                [--k K | --threshold T] [--delta D] [--radius R] [--no-doo] [--events]
                [--shards N] [--cell-cache-pages M]
  ctup run-opt  [same workload flags] [--checkpoint-out FILE]
  ctup resume   --checkpoint FILE [--skip N] [--updates N] [--places N] [--seed S]
  ctup chaos    [same workload flags] [--drop P] [--dup P] [--reorder P] [--reorder-window W]
                [--corrupt P] [--delay P] [--max-delay W] [--fault-seed S]
                [--panic-at N,N,...] [--lease-ttl T] [--checkpoint-every N] [--max-restarts N]
                [--disk-faults P] [--torn-writes N] [--bit-flips N] [--disk-seed S]
                [--state-dir DIR] [--kill-at N] [--tear-slot] [--recover]
                [--flight-recorder N] [--flight-recorder-keep N]
                [--self-heal] [--kill-repeat] [--max-revives N]
  ctup report   [same workload flags] [--format text|json|prom] [--out FILE]
  ctup serve-metrics [same workload flags] [--addr HOST:PORT] [--serve-secs N]
  ctup serve    [same workload flags] [--addr HOST:PORT] [--metrics-addr HOST:PORT]
                [--serve-secs N] [--updates N] [--kill-at N] [--queue-capacity N]
                [--session-quota N] [--ingest-deadline-ms N] [--snapshot-push-ms N]
                [--state-dir DIR] [--checkpoint-every N] [--epoch N]
                [--standby HOST:PORT] [--span-dump FILE] [--trace-every N]
  ctup feed     [--addr HOST:PORT] [--updates N] [--units N] [--places N] [--seed S]
                [--rate-hz F] [--max-in-flight N] [--max-attempts N] [--net-seed S]
                [--refuse-per-mille N] [--die-per-mille N] [--slow-per-mille N]
                [--deadline-secs N] [--failover HOST:PORT,HOST:PORT,...]
                [--span-dump FILE] [--trace-every N]
  ctup trace    --input FILE [--slowest N]

The workload is deterministic per --seed: `run-opt --updates N --checkpoint-out cp`
followed by `resume --checkpoint cp --skip N` continues the same stream.
`--shards N` (with the opt algorithm) runs the sharded parallel engine: grid
cells are partitioned across N OptCTUP workers and the per-shard top-k results
are merged into the exact global answer — same SK and safeties as the
sequential run, differing at most in which equally-unsafe places tie at SK.
`--cell-cache-pages M` puts a bounded LRU cell-read cache (M pages) in front of
the store; hits, misses, evictions, prefetch hits and the derived
cache_hit_ratio appear in every report format. Cells are ordered along the
Morton (Z-order) curve: shards own contiguous Z-ranges balanced by cell load,
the sharded coordinator hands each batch's touched cells to the cache as one
working-set hint before the workers run — pinning resident cells and re-warming
just-evicted ones — and faulty-disk pages (`chaos --disk-faults`) are packed
in Z-order. These flags also apply to `report` and `serve-metrics`.
`chaos` degrades the feed with a seeded fault plan, runs the supervised
pipeline over it (ingest validation, liveness leases, checkpoint-restart on
injected panics), and prints the resilience counters. `--disk-faults P` adds
a faulty simulated disk (transient read errors with probability P, plus
`--torn-writes`/`--bit-flips` pages damaged at build); corruption is always
detected by the page checksums, never served silently. `--state-dir DIR`
makes checkpoints durable (A/B slots plus a report journal); `--kill-at N`
dies abruptly before effective update N (`--tear-slot` also tears the newest
slot, as a death mid-checkpoint-write), and rerunning the same command with
`--recover` resumes from the surviving slot, replays the journal tail, and
converges to the uninterrupted run's result. When a supervised worker dies
(killed or restart budget exhausted) with a --state-dir, the flight recorder
dumps its last --flight-recorder events as JSON Lines next to the slots,
rotating older dumps to numbered files (--flight-recorder-keep bounds how
many survive). `chaos --self-heal` (with --state-dir and --kill-at) drives
the degraded feed through a loopback front door whose pump revives the
killed engine from the durable slots — level-1 self-heal — and prints
whether degraded mode was exited without operator intervention;
`--kill-repeat` re-arms the kill after every revival, a crash storm that
must trip the circuit breaker (budget --max-revives) into sticky degraded
mode.
`report` emits the unified metrics snapshot (counters, gauges and latency
histograms with p50/p90/p99/p999) as text, JSON, or Prometheus exposition
text; `serve-metrics` serves the same snapshot on http://ADDR/metrics for
Prometheus to scrape.
`serve` opens the networked ingest front door: a sessioned wire-protocol
server feeding a supervised OptCTUP pipeline, with bounded admission queues,
typed load shedding, slow-client eviction and a watchdog that degrades to
serving the last-good top-k if the engine dies. /metrics and /healthz are
served on --metrics-addr; `--updates N` first self-feeds N workload updates
over loopback so the counters are non-trivial. `feed` drives the same
deterministic workload into a running server from another process, optionally
through scripted link faults (--refuse/--die/--slow-per-mille, seeded by
--net-seed) to rehearse reconnect-and-replay; use the same --units/--places/
--seed as the server so the ingest gate accepts the stream.
`serve --state-dir DIR` makes the engine's checkpoints durable and arms
level-1 self-heal: a dead engine is revived in-process from the A/B slot and
journal tail instead of parking in degraded mode. `serve --standby
PRIMARY:PORT` starts a warm standby instead of a primary: it bootstraps from
a checkpoint shipped over the wire protocol's replication frames, tails the
primary's WAL stream to stay hot, and — when liveness probes go dark —
promotes itself behind a fenced epoch (stale frames from a partitioned old
primary are rejected; sessions are re-based so old ids cannot be captured).
`feed --failover ADDR,ADDR` gives the client the standby address list: every
reconnect walks the list with the usual seeded-jitter backoff, so a feed
survives a primary kill by walking over to the promoted standby.
`serve --span-dump FILE` arms end-to-end causal tracing (DESIGN.md §17): a
1-in-N head sample of reports (--trace-every, default 1 = every report)
carries a 64-bit trace id from the client socket through admission, the
engine apply, the shard/merge phases and the top-k publish, and the spans
are dumped as JSON Lines at shutdown. Sheds, failovers and degraded-mode
entries are always traced regardless of the sampling rate. `feed
--span-dump` records the feeder's client-send halves the same way. `ctup
trace --input FILE` analyzes a dump offline: per-stage latency breakdown,
the critical path of the --slowest N traces (stage durations, inter-stage
gaps, and the stage-sum vs end-to-end accounting), plus orphaned-span and
clock-inversion diagnostics; `cargo xtask spancheck FILE` validates the
same dump structurally in CI."
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cmd(
        f: fn(Vec<String>, &mut dyn Write) -> Result<(), CliError>,
        args: &[&str],
    ) -> Result<String, CliError> {
        let mut out = Vec::new();
        f(args.iter().map(|s| s.to_string()).collect(), &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn generate_and_run_with_snapshot() {
        let dir = std::env::temp_dir().join("ctup-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cli_places.txt");
        let path_str = path.to_str().unwrap();

        let out = run_cmd(
            generate,
            &["--places", "300", "--seed", "5", "--out", path_str],
        )
        .expect("generate");
        assert!(out.contains("wrote 300 places"));

        let out = run_cmd(
            run,
            &[
                "--places-file",
                path_str,
                "--units",
                "10",
                "--updates",
                "50",
                "--k",
                "3",
                "--seed",
                "5",
            ],
        )
        .expect("run");
        assert!(out.contains("final result:"));
        assert!(out.contains("costs:"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_all_algorithms_small() {
        for algorithm in ["opt", "basic", "naive", "naive-inc"] {
            let out = run_cmd(
                run,
                &[
                    "--algorithm",
                    algorithm,
                    "--places",
                    "200",
                    "--units",
                    "8",
                    "--updates",
                    "20",
                    "--k",
                    "3",
                ],
            )
            .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
            assert!(out.contains("final result:"), "{algorithm}");
        }
    }

    #[test]
    fn sharded_run_matches_sequential_result() {
        // (seed, updates, shards, update-total samples = updates × shards)
        for (seed, updates, shards, samples) in [("17", "80", "4", 320), ("29", "60", "3", 180)] {
            let base = [
                "--places",
                "300",
                "--units",
                "10",
                "--updates",
                updates,
                "--k",
                "4",
                "--seed",
                seed,
            ];
            let sequential = run_cmd(run, &base).expect("sequential run");
            let mut sharded_args = base.to_vec();
            sharded_args.extend(["--shards", shards, "--cell-cache-pages", "64"]);
            let sharded = run_cmd(run, &sharded_args).expect("sharded run");
            assert!(sharded.contains("using sharded"), "{sharded}");
            // Parse the `  place {id}  safety {s}` lines of the final result.
            let entries = |s: &str| -> Vec<(u64, i64)> {
                s.lines()
                    .skip_while(|l| !l.starts_with("final result:"))
                    .skip(1)
                    .take_while(|l| !l.starts_with("costs:"))
                    .map(|l| {
                        let mut words = l.split_whitespace();
                        assert_eq!(words.next(), Some("place"), "{l}");
                        let place = words.next().expect("place id").parse().expect("place id");
                        assert_eq!(words.next(), Some("safety"), "{l}");
                        let safety = words.next().expect("safety").parse().expect("safety");
                        (place, safety)
                    })
                    .collect()
            };
            let seq_entries = entries(&sequential);
            let sharded_entries = entries(&sharded);
            // The engines must agree on every safety and on every entry
            // strictly below SK; the tie tail at SK is implementation-chosen
            // (see DESIGN.md §13), so place ids there may differ.
            let safeties = |r: &[(u64, i64)]| r.iter().map(|&(_, s)| s).collect::<Vec<_>>();
            assert_eq!(
                safeties(&seq_entries),
                safeties(&sharded_entries),
                "sequential:\n{sequential}\nsharded:\n{sharded}"
            );
            let sk = seq_entries.get(3).map(|&(_, s)| s);
            let strictly_below = |r: &[(u64, i64)]| -> Vec<(u64, i64)> {
                r.iter()
                    .filter(|&&(_, s)| sk.is_none_or(|sk| s < sk))
                    .copied()
                    .collect()
            };
            assert_eq!(
                strictly_below(&seq_entries),
                strictly_below(&sharded_entries),
                "sequential:\n{sequential}\nsharded:\n{sharded}"
            );
            // The sharded engine's per-shard latency channels feed the
            // report: every update seen by every shard is one sample.
            let total_line = sharded
                .lines()
                .find(|l| l.starts_with("latency update-total"))
                .expect("update-total latency line");
            assert!(
                total_line.contains(&format!("n={samples} ")),
                "{total_line}"
            );
        }
    }

    #[test]
    fn sharded_rejects_non_opt_and_zero_shards() {
        let err = run_cmd(run, &["--algorithm", "basic", "--shards", "2"]).expect_err("must fail");
        assert!(err.0.contains("requires the opt algorithm"), "{err}");
        let err = run_cmd(run, &["--shards", "0"]).expect_err("must fail");
        assert!(err.0.contains("--shards must be at least 1"), "{err}");
    }

    #[test]
    fn run_with_events_and_threshold() {
        let out = run_cmd(
            run,
            &[
                "--places",
                "200",
                "--units",
                "8",
                "--updates",
                "30",
                "--threshold",
                "-3",
                "--events",
            ],
        )
        .expect("run --events");
        assert!(out.contains("costs:"));
    }

    #[test]
    fn checkpoint_and_resume_roundtrip() {
        let dir = std::env::temp_dir().join("ctup-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let cp = dir.join("cli_checkpoint.txt");
        let cp_str = cp.to_str().unwrap();

        let out = run_cmd(
            run_opt,
            &[
                "--places",
                "300",
                "--units",
                "10",
                "--updates",
                "100",
                "--k",
                "4",
                "--seed",
                "9",
                "--checkpoint-out",
                cp_str,
            ],
        )
        .expect("run-opt");
        assert!(out.contains("checkpoint written"));

        let out = run_cmd(
            resume,
            &[
                "--checkpoint",
                cp_str,
                "--places",
                "300",
                "--seed",
                "9",
                "--skip",
                "100",
                "--updates",
                "100",
            ],
        )
        .expect("resume");
        assert!(out.contains("resumed from"));
        assert!(out.contains("final result:"));
        std::fs::remove_file(&cp).ok();
    }

    #[test]
    fn resume_and_continuous_run_agree() {
        // A 200-update run must equal run(100) -> checkpoint -> resume(100).
        let dir = std::env::temp_dir().join("ctup-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let cp = dir.join("cli_agree.txt");
        let cp_str = cp.to_str().unwrap();
        let base = [
            "--places", "300", "--units", "10", "--k", "4", "--seed", "33",
        ];
        let mut full_args: Vec<&str> = base.to_vec();
        full_args.extend(["--updates", "200"]);
        let full = run_cmd(run_opt, &full_args).expect("full run");

        let mut first_args: Vec<&str> = base.to_vec();
        first_args.extend(["--updates", "100", "--checkpoint-out", cp_str]);
        run_cmd(run_opt, &first_args).expect("first half");
        let resumed = run_cmd(
            resume,
            &[
                "--checkpoint",
                cp_str,
                "--places",
                "300",
                "--seed",
                "33",
                "--skip",
                "100",
                "--updates",
                "100",
            ],
        )
        .expect("second half");

        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("final result:"))
                .take_while(|l| !l.starts_with("costs:"))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            tail(&full),
            tail(&resumed),
            "full:\n{full}\nresumed:\n{resumed}"
        );
        std::fs::remove_file(&cp).ok();
    }

    #[test]
    fn chaos_survives_and_reports_counters() {
        let out = run_cmd(
            chaos,
            &[
                "--places",
                "300",
                "--units",
                "10",
                "--updates",
                "200",
                "--k",
                "4",
                "--seed",
                "7",
                "--drop",
                "0.1",
                "--dup",
                "0.05",
                "--corrupt",
                "0.05",
                "--panic-at",
                "40",
                "--checkpoint-every",
                "32",
            ],
        )
        .expect("chaos");
        assert!(out.contains("degraded feed:"));
        assert!(out.contains("resilience counters:"));
        assert!(out.contains("final result:"));
        assert!(!out.contains("GAVE UP"));
        // The injected mid-run panic must have been survived by one restart.
        let restarts: u64 = out
            .lines()
            .find(|l| l.trim_start().starts_with("worker restarts"))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .expect("worker restarts line");
        assert_eq!(restarts, 1, "{out}");
    }

    #[test]
    fn chaos_rejects_bad_panic_at() {
        assert!(run_cmd(chaos, &["--panic-at", "40,x"]).is_err());
    }

    fn counter(out: &str, name: &str) -> u64 {
        out.lines()
            .find(|l| l.trim_start().starts_with(name))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing counter {name:?} in:\n{out}"))
    }

    #[test]
    fn chaos_with_disk_faults_reports_storage_counters() {
        let out = run_cmd(
            chaos,
            &[
                "--places",
                "300",
                "--units",
                "10",
                "--updates",
                "300",
                "--k",
                "4",
                "--seed",
                "11",
                "--disk-faults",
                "0.05",
            ],
        )
        .expect("chaos --disk-faults");
        assert!(out.contains("faulty disk:"), "{out}");
        assert!(out.contains("storage counters:"));
        assert!(out.contains("cache prefetch hits"), "{out}");
        assert!(!out.contains("GAVE UP"), "{out}");
        // At a 5% per-page transient fault rate some reads must have
        // retried; with the default 3-retry budget none silently succeed.
        assert!(counter(&out, "read retries") > 0, "{out}");
        assert!(counter(&out, "cell reads") > 0, "{out}");
    }

    #[test]
    fn chaos_faulty_disk_matches_clean_store_under_faulty_feed() {
        // The same seeded degraded feed over a disk with transient page
        // errors and over the in-memory store: retried reads and contained
        // storage errors change which reads happen, never the answer. The
        // tie tail at SK may pick other places after a restart, so the
        // final safeties are compared, as in
        // `sharded_run_matches_sequential_result`.
        let base = [
            "--places",
            "300",
            "--units",
            "10",
            "--updates",
            "200",
            "--k",
            "4",
            "--seed",
            "23",
        ];
        let clean = run_cmd(chaos, &base).expect("chaos over the in-memory store");
        let mut faulty_args: Vec<&str> = base.to_vec();
        faulty_args.extend(["--disk-faults", "0.05"]);
        let faulty = run_cmd(chaos, &faulty_args).expect("chaos over a faulty disk");
        assert!(faulty.contains("faulty disk:"), "{faulty}");
        let safeties = |s: &str| -> Vec<i64> {
            s.lines()
                .skip_while(|l| !l.starts_with("final result:"))
                .skip(1)
                .map(|l| {
                    l.split_whitespace()
                        .nth(3)
                        .expect("safety value")
                        .parse()
                        .expect("safety value")
                })
                .collect()
        };
        let final_clean = safeties(&clean);
        assert!(!final_clean.is_empty(), "{clean}");
        assert_eq!(final_clean, safeties(&faulty), "{clean}\n---\n{faulty}");
    }

    #[test]
    fn chaos_kill_then_recover_matches_uninterrupted_run() {
        let dir = std::env::temp_dir().join("ctup-cli-test-state");
        let dir_str = dir.to_str().unwrap().to_string();
        // (extra run flags, extra kill flags): the in-memory store with the
        // newest slot torn at the kill, and a disk with transient page
        // errors under the whole run.
        let inputs: [(&[&str], &[&str]); 2] = [
            (&["--seed", "21"], &["--tear-slot"]),
            (&["--seed", "23", "--disk-faults", "0.05"], &[]),
        ];
        for (run_extra, kill_extra) in inputs {
            std::fs::remove_dir_all(&dir).ok();
            let mut base = vec![
                "--places",
                "300",
                "--units",
                "10",
                "--updates",
                "200",
                "--k",
                "4",
                "--checkpoint-every",
                "16",
            ];
            base.extend(run_extra);

            let uninterrupted = run_cmd(chaos, &base).expect("uninterrupted chaos");
            assert!(!uninterrupted.contains("KILLED"));

            let mut kill_args = base.clone();
            kill_args.extend(["--state-dir", &dir_str, "--kill-at", "60"]);
            kill_args.extend(kill_extra);
            let killed = run_cmd(chaos, &kill_args).expect("killed chaos run");
            assert!(killed.contains("KILLED"), "{killed}");
            assert!(!killed.contains("final result:\n  place"), "{killed}");
            // The death left a parseable flight-recorder dump next to the
            // slots.
            assert!(killed.contains("flight recorder dumped to"), "{killed}");
            let dump_path = dir.join("flight-recorder.jsonl");
            let dump = std::fs::read_to_string(&dump_path).expect("dump exists");
            assert!(dump.lines().count() > 0);
            assert!(
                dump.lines()
                    .last()
                    .expect("lines")
                    .contains("\"outcome\":\"killed\""),
                "{dump}"
            );

            let mut recover_args = base.clone();
            recover_args.extend(["--state-dir", &dir_str, "--recover"]);
            let recovered = run_cmd(chaos, &recover_args).expect("recovered chaos run");
            assert!(recovered.contains("recovering from"), "{recovered}");
            assert!(!recovered.contains("KILLED"), "{recovered}");
            assert!(counter(&recovered, "updates replayed") > 0, "{recovered}");

            // The recovered run converges to the same final top-k as the
            // run that was never interrupted.
            let tail = |s: &str| {
                s.lines()
                    .skip_while(|l| !l.starts_with("final result:"))
                    .map(String::from)
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                tail(&uninterrupted),
                tail(&recovered),
                "uninterrupted:\n{uninterrupted}\nrecovered:\n{recovered}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_recover_requires_state_dir() {
        let err = run_cmd(chaos, &["--updates", "10", "--recover"]).expect_err("must fail");
        assert!(err.0.contains("--recover requires --state-dir"), "{err}");
    }

    #[test]
    fn chaos_self_heal_exits_degraded_without_operator() {
        let dir = std::env::temp_dir().join("ctup-cli-test-self-heal");
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_str().unwrap().to_string();
        let out = run_cmd(
            chaos,
            &[
                "--places",
                "300",
                "--units",
                "10",
                "--updates",
                "200",
                "--k",
                "4",
                "--seed",
                "21",
                "--checkpoint-every",
                "16",
                "--state-dir",
                &dir_str,
                "--kill-at",
                "60",
                "--self-heal",
            ],
        )
        .expect("chaos --self-heal");
        assert!(out.contains("self-heal:"), "{out}");
        assert!(out.contains("breaker tripped: false"), "{out}");
        assert!(out.contains("degraded at exit: false"), "{out}");
        let restarts: u64 = out
            .lines()
            .find(|l| l.starts_with("self-heal:"))
            .and_then(|l| l.split(';').nth(1)?.split_whitespace().next()?.parse().ok())
            .expect("engine restarts count");
        assert_eq!(restarts, 1, "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_self_heal_crash_storm_trips_breaker() {
        let dir = std::env::temp_dir().join("ctup-cli-test-crash-storm");
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_str().unwrap().to_string();
        let out = run_cmd(
            chaos,
            &[
                "--places",
                "300",
                "--units",
                "10",
                "--updates",
                "400",
                "--k",
                "4",
                "--seed",
                "21",
                "--checkpoint-every",
                "8",
                "--state-dir",
                &dir_str,
                "--kill-at",
                "20",
                "--self-heal",
                "--kill-repeat",
                "--max-revives",
                "2",
            ],
        )
        .expect("chaos --self-heal --kill-repeat");
        assert!(out.contains("breaker tripped: true"), "{out}");
        assert!(out.contains("degraded at exit: true"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_self_heal_requires_state_dir_and_kill_at() {
        let err = run_cmd(chaos, &["--updates", "10", "--self-heal"]).expect_err("must fail");
        assert!(err.0.contains("--self-heal requires --state-dir"), "{err}");
        let dir = std::env::temp_dir().join("ctup-cli-test-self-heal-args");
        let dir_str = dir.to_str().unwrap().to_string();
        let err = run_cmd(
            chaos,
            &["--updates", "10", "--self-heal", "--state-dir", &dir_str],
        )
        .expect_err("must fail");
        assert!(err.0.contains("--self-heal requires --kill-at"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_are_user_facing() {
        assert!(run_cmd(run, &["--algorithm", "magic"]).is_err());
        assert!(run_cmd(run, &["--bogus", "1"]).is_err());
        assert!(run_cmd(resume, &[]).is_err());
        assert!(run_cmd(generate, &["--rp-min", "9", "--rp-max", "2"]).is_err());
        assert!(run_cmd(report, &["--format", "xml"]).is_err());
    }

    #[test]
    fn run_report_includes_latency_quantiles() {
        let out = run_cmd(
            run,
            &[
                "--places",
                "200",
                "--units",
                "8",
                "--updates",
                "50",
                "--k",
                "3",
            ],
        )
        .expect("run");
        assert!(out.contains("latency update-total"), "{out}");
        assert!(out.contains("p50="), "{out}");
        assert!(out.contains("p99="), "{out}");
    }

    const REPORT_BASE: &[&str] = &[
        "--places",
        "200",
        "--units",
        "8",
        "--updates",
        "60",
        "--k",
        "3",
        "--seed",
        "13",
    ];

    #[test]
    fn report_text_lists_every_series() {
        let mut args = REPORT_BASE.to_vec();
        args.extend(["--format", "text"]);
        let out = run_cmd(report, &args).expect("report text");
        assert!(out.contains("algorithm: opt\n"), "{out}");
        assert!(out.contains("updates_processed: 60\n"), "{out}");
        assert!(out.contains("storage_cell_reads:"), "{out}");
        assert!(out.contains("resilience_worker_panics: 0\n"), "{out}");
        assert!(out.contains("update_total_nanos: n=60 "), "{out}");
    }

    #[test]
    fn report_json_round_trips_counters() {
        let mut args = REPORT_BASE.to_vec();
        args.extend(["--format", "json"]);
        let out = run_cmd(report, &args).expect("report json");
        assert!(
            out.starts_with('{') && out.trim_end().ends_with('}'),
            "{out}"
        );
        assert!(out.contains("\"algorithm\":\"opt\""), "{out}");
        assert!(out.contains("\"updates_processed\":60"), "{out}");
        assert!(out.contains("\"p99\":"), "{out}");
    }

    #[test]
    fn report_prom_is_scrapeable_exposition() {
        let mut args = REPORT_BASE.to_vec();
        args.extend(["--format", "prom"]);
        let out = run_cmd(report, &args).expect("report prom");
        assert!(
            out.contains("# TYPE ctup_updates_processed counter\n"),
            "{out}"
        );
        assert!(
            out.contains("ctup_updates_processed{algorithm=\"opt\"} 60\n"),
            "{out}"
        );
        assert!(
            out.contains("# TYPE ctup_update_total_nanos histogram\n"),
            "{out}"
        );
        assert!(out.contains("le=\"+Inf\"}"), "{out}");
        assert!(
            out.contains("ctup_update_total_nanos_count{algorithm=\"opt\"} 60\n"),
            "{out}"
        );
    }

    #[test]
    fn report_with_tiny_cache_counts_misses_and_evictions() {
        // naive's bulk load reads each of the 10x10 grid's cells exactly
        // once in grid order and never touches storage again, so a one-page
        // budget makes every read a miss and evicts on all but the first
        // insertion. The whole pipeline (cache -> stats -> report) is thus
        // exactly predictable.
        let out = run_cmd(
            report,
            &[
                "--algorithm",
                "naive",
                "--places",
                "200",
                "--units",
                "8",
                "--updates",
                "30",
                "--k",
                "3",
                "--cell-cache-pages",
                "1",
            ],
        )
        .expect("report with cache");
        let field = |name: &str| -> u64 {
            out.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("missing {name:?} in:\n{out}"))
        };
        assert_eq!(field("storage_cache_hits:"), 0, "{out}");
        assert_eq!(field("storage_cache_misses:"), 100, "{out}");
        assert_eq!(field("storage_cache_evictions:"), 99, "{out}");
        // Every lower-level read flowed through the cache as a miss.
        assert_eq!(field("storage_cell_reads:"), 100, "{out}");
        assert!(out.contains("cache_hit_ratio: 0.000000\n"), "{out}");
    }

    #[test]
    fn report_without_cache_reports_zero_cache_traffic() {
        let mut args = REPORT_BASE.to_vec();
        args.extend(["--format", "text"]);
        let out = run_cmd(report, &args).expect("report text");
        assert!(out.contains("storage_cache_hits: 0\n"), "{out}");
        assert!(out.contains("storage_cache_misses: 0\n"), "{out}");
        assert!(out.contains("cache_hit_ratio: 0.000000\n"), "{out}");
    }

    #[test]
    fn report_sharded_counts_prefetch_hits_among_hits() {
        let mut args = REPORT_BASE.to_vec();
        args.extend([
            "--format",
            "text",
            "--shards",
            "4",
            "--cell-cache-pages",
            "64",
        ]);
        let out = run_cmd(report, &args).expect("report with prefetch");
        let field = |name: &str| -> u64 {
            out.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("missing {name:?} in:\n{out}"))
        };
        // How many demand hits a generated stream lands on hinted entries
        // is the stream's business (core::parallel's hand-built
        // `a_hinted_cell_read_in_the_same_batch_is_a_prefetch_hit` pins
        // the mechanism); what holds for every stream is that the series
        // is reported and counts a subset of the demand hits.
        assert!(
            field("storage_cache_hits:") + field("storage_cache_misses:") > 0,
            "{out}"
        );
        assert!(
            field("storage_cache_prefetch_hits:") <= field("storage_cache_hits:"),
            "{out}"
        );
    }

    #[test]
    fn report_writes_file_with_out_flag() {
        let dir = std::env::temp_dir().join("ctup-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench_report.json");
        let path_str = path.to_str().unwrap();
        let mut args = REPORT_BASE.to_vec();
        args.extend(["--format", "json", "--out", path_str]);
        let out = run_cmd(report, &args).expect("report --out");
        assert!(out.contains("report written to"), "{out}");
        let body = std::fs::read_to_string(&path).expect("file written");
        assert!(body.contains("\"histograms\":{"), "{body}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_metrics_binds_and_announces() {
        let out = run_cmd(
            serve_metrics,
            &[
                "--places",
                "200",
                "--units",
                "8",
                "--updates",
                "20",
                "--k",
                "3",
                "--addr",
                "127.0.0.1:0",
                "--serve-secs",
                "0",
            ],
        )
        .expect("serve-metrics");
        assert!(
            out.contains("serving Prometheus metrics at http://127.0.0.1:"),
            "{out}"
        );
    }

    #[test]
    fn serve_loopback_feed_accounts_exactly_once() {
        let out = run_cmd(
            serve,
            &[
                "--units",
                "25",
                "--places",
                "1500",
                "--updates",
                "200",
                "--serve-secs",
                "0",
                "--addr",
                "127.0.0.1:0",
                "--metrics-addr",
                "127.0.0.1:0",
            ],
        )
        .expect("serve");
        assert!(out.contains("ingest front door at 127.0.0.1:"), "{out}");
        assert!(out.contains("health at /healthz"), "{out}");
        assert!(
            out.contains("loopback feed: 200 offered, 200 acked, 0 shed"),
            "{out}"
        );
        assert_eq!(counter(&out, "reports accepted"), 200, "{out}");
        assert_eq!(counter(&out, "shed total"), 0, "{out}");
        assert_eq!(counter(&out, "sessions opened"), 1, "{out}");
        assert!(
            out.contains("exactly-once: 200 accepted at the door, 200 applied by the engine"),
            "{out}"
        );
        assert!(out.contains("final result:"), "{out}");
    }

    #[test]
    fn serve_span_dump_yields_a_complete_traced_chain() {
        let dir = std::env::temp_dir().join(format!("ctup-span-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("spans.jsonl");
        let dump_str = dump.to_str().unwrap().to_string();
        let out = run_cmd(
            serve,
            &[
                "--units",
                "25",
                "--places",
                "1500",
                "--updates",
                "40",
                "--serve-secs",
                "0",
                "--addr",
                "127.0.0.1:0",
                "--metrics-addr",
                "127.0.0.1:0",
                "--span-dump",
                &dump_str,
                "--trace-every",
                "1",
            ],
        )
        .expect("serve with span dump");
        assert!(out.contains("span dump:"), "{out}");
        assert!(counter(&out, "traces sampled") >= 40, "{out}");
        let text = std::fs::read_to_string(&dump).expect("span dump file");
        // Every canonical pipeline stage must appear in the dump.
        for stage in Stage::CANONICAL_CHAIN {
            assert!(
                text.contains(stage.label()),
                "stage {} missing from dump:\n{text}",
                stage.label()
            );
        }
        // The analyzer must reconstruct at least one contiguous chain and
        // account its stage durations against the end-to-end latency.
        let traced =
            run_cmd(trace, &["--input", &dump_str, "--slowest", "3"]).expect("trace analysis");
        assert!(traced.contains("complete causal chain"), "{traced}");
        assert!(traced.contains("% of end-to-end"), "{traced}");
        assert!(traced.contains("client-send"), "{traced}");
        assert!(traced.contains("snapshot-publish"), "{traced}");
        assert!(traced.contains("diagnostics: 0 orphan(s)"), "{traced}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_analyzes_a_synthetic_dump() {
        use ctup_obs::mint_trace;
        let sink = SpanSink::new(1024);
        // A fast trace and a slow one; the slow one must lead the report.
        for (seq, scale) in [(1u64, 1u64), (2, 100)] {
            let t = mint_trace(7, seq);
            let stages = Stage::CANONICAL_CHAIN;
            for (i, stage) in stages.iter().enumerate() {
                let i = u64::try_from(i).unwrap();
                sink.record_stage(t, *stage, 0, i * 10 * scale, (i * 10 + 10) * scale, true);
            }
        }
        let mut out = Vec::new();
        render_trace_report(&sink.dump_jsonl(), "synthetic", 1, &mut out).expect("analyze");
        let text = String::from_utf8(out).expect("utf8");
        assert!(
            text.contains("14 span(s) (14 line(s)) across 2 trace(s)"),
            "{text}"
        );
        assert!(text.contains("complete causal chain"), "{text}");
        // The slow trace: stages [0,1000),[1000,2000)..[6000,7000) tile
        // exactly, so the stage sum is 100.0% of the end-to-end window.
        assert!(text.contains("100.0% of end-to-end"), "{text}");
        assert!(
            text.contains("diagnostics: 0 orphan(s), 0 inversion(s)"),
            "{text}"
        );
    }

    #[test]
    fn trace_flags_broken_chains_and_orphans() {
        use ctup_obs::mint_trace;
        let t = mint_trace(3, 3);
        // Session-admit and engine-apply without their intermediate
        // stages: engine-apply's parent (queue-wait) is a hole.
        let lines = [
            Span::stage_span(t, Stage::SessionAdmit, 0, 10, 20, true).to_jsonl(),
            Span::stage_span(t, Stage::EngineApply, 0, 30, 40, true).to_jsonl(),
        ]
        .join("\n");
        let mut out = Vec::new();
        render_trace_report(&lines, "synthetic", 5, &mut out).expect("analyze");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("chain broken — missing:"), "{text}");
        assert!(text.contains("queue-wait"), "{text}");
        assert!(text.contains("2 orphan(s)"), "{text}");
    }

    #[test]
    fn trace_requires_input_and_rejects_garbage() {
        let err = run_cmd(trace, &[]).expect_err("missing input");
        assert!(err.0.contains("--input"), "{err}");
        let dir = std::env::temp_dir().join(format!("ctup-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.jsonl");
        std::fs::write(&path, "not a span\n").unwrap();
        let err = run_cmd(trace, &["--input", path.to_str().unwrap()]).expect_err("garbage input");
        assert!(err.0.contains("garbage.jsonl:1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn feed_drives_a_live_server_and_reports_accounting() {
        let sink = Arc::new(ctup_core::net::CountingSink::default());
        let engine: Arc<dyn EngineSink> = Arc::clone(&sink) as Arc<dyn EngineSink>;
        let server = IngestServer::spawn("127.0.0.1:0", NetServerConfig::default(), engine)
            .expect("spawn server");
        let addr = server.local_addr().to_string();
        let out = run_cmd(
            feed,
            &[
                "--addr",
                &addr,
                "--updates",
                "150",
                "--units",
                "25",
                "--places",
                "1500",
            ],
        )
        .expect("feed");
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
    fn feed_rejects_bad_addr() {
        let err = run_cmd(feed, &["--addr", "not-an-addr"]).expect_err("bad addr");
        assert!(err.0.contains("bad --addr"), "{err}");
    }

    #[test]
    fn feed_failover_rejects_bad_entry_and_fault_combo() {
        let err = run_cmd(
            feed,
            &["--addr", "127.0.0.1:9710", "--failover", "not-an-addr"],
        )
        .expect_err("bad failover entry");
        assert!(err.0.contains("bad --failover entry"), "{err}");
        let err = run_cmd(
            feed,
            &[
                "--addr",
                "127.0.0.1:9710",
                "--failover",
                "127.0.0.1:9711",
                "--die-per-mille",
                "5",
            ],
        )
        .expect_err("fault combo");
        assert!(err.0.contains("--failover cannot be combined"), "{err}");
    }

    #[test]
    fn feed_walks_over_to_a_failover_address() {
        // Primary address points at nothing; the failover list's second
        // entry is a live server — the dialer must walk over to it.
        let sink = Arc::new(ctup_core::net::CountingSink::default());
        let engine: Arc<dyn EngineSink> = Arc::clone(&sink) as Arc<dyn EngineSink>;
        let server = IngestServer::spawn("127.0.0.1:0", NetServerConfig::default(), engine)
            .expect("spawn server");
        let live = server.local_addr().to_string();
        // A bound-then-dropped listener yields an address that refuses.
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let out = run_cmd(
            feed,
            &[
                "--addr",
                &dead,
                "--failover",
                &live,
                "--updates",
                "50",
                "--units",
                "25",
                "--places",
                "1500",
                "--max-attempts",
                "8",
            ],
        )
        .expect("feed with failover");
        assert!(out.contains("feed: 50 offered, 50 acked, 0 shed"), "{out}");
        assert_eq!(sink.accepted(), 50);
        let net = server.shutdown();
        assert_eq!(net.reports_accepted, 50);
    }

    #[test]
    fn serve_standby_rejects_bad_primary() {
        let err = run_cmd(
            serve,
            &[
                "--standby",
                "nowhere",
                "--serve-secs",
                "0",
                "--units",
                "10",
                "--places",
                "200",
            ],
        )
        .expect_err("bad standby addr");
        assert!(err.0.contains("bad --standby"), "{err}");
    }
}
