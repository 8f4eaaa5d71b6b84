//! The frozen definition of the benchmark: workloads and their constants,
//! metric names and units, phase plan. `BENCHMARK.json` at the repository
//! root states the same names; the smoke test holds the two together.

use crate::json::Json;

/// Which system a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sut {
    /// Loopback TCP -> `IngestServer` -> `PipelineSink` ->
    /// `SupervisedPipeline<OptCtup>` over `CellLocalStore`; `durable` adds
    /// a state directory (WAL append per report, A/B checkpoints).
    Door {
        /// Whether the supervisor journals and checkpoints to disk.
        durable: bool,
    },
    /// In-process `OptCtup::handle_update` over `CellLocalStore`.
    EngineMem,
    /// In-process `ShardedCtup::handle_batch` over `CachedStore` over
    /// `PagedDiskStore`.
    EngineDisk,
}

/// One workload: a system, its inputs, and the fixed rates of its ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, in one line (README.md has the paragraph).
    pub why: &'static str,
    /// The system under test.
    pub sut: Sut,
    /// Protecting units `|U|`.
    pub units: u32,
    /// Places `|P|`.
    pub places: u32,
    /// Simulation time between reporting rounds: smaller means shorter
    /// moves, hence fewer touched cells per report.
    pub tick_dt: f64,
    /// Open-phase ladder, reports/s: about 25 %, 50 % and 90 % of the
    /// closed-phase capacity measured on the reference box, then frozen.
    pub rates: [u64; 3],
    /// Reports pre-generated per run: warm-up plus a 15 s closed phase at
    /// twice the reference capacity (more for the doors, whose capacity a
    /// fix to the ack path would multiply), which also covers the traced
    /// run's short closed phase and ladder.
    pub stream: usize,
}

/// Grid granularity `G` (Table III).
pub const GRANULARITY: u32 = 10;
/// `k` of the top-k query (Table III).
pub const K: usize = 15;
/// Anti-flashing slack (Table III).
pub const DELTA: i64 = 6;
/// Protection range `R` (Table III).
pub const RADIUS: f64 = 0.1;
/// Untimed reports before the closed phase.
pub const WARMUP: usize = 2_000;
/// Build-and-drop cycles behind `setup_s`.
pub const SETUP_CYCLES: usize = 5;
/// `engine-disk`: worker shards.
pub const SHARDS: u32 = 2;
/// `engine-disk`: updates per `handle_batch` call.
pub const BATCH: usize = 32;
/// `engine-disk`: cache capacity in pages (the Z-ordered Table III disk
/// has ~113, so the working set does not fit).
pub const CACHE_PAGES: u64 = 64;
/// `engine-disk`: busy-waited latency per page read.
pub const PAGE_LATENCY_NANOS: u64 = 20_000;
/// `door-durable`: reports journaled past the last checkpoint when the
/// engine is killed for a recovery cycle.
pub const RECOVERY_TAIL: u64 = 200;
/// `door-durable`: kill-and-recover cycles.
pub const RECOVERY_CYCLES: usize = 5;
/// Front-door constants exactly as `ctup serve` builds them.
pub const PIPELINE_CAPACITY: usize = 4096;
/// Checkpoint cadence exactly as `ctup serve` defaults it.
pub const CHECKPOINT_EVERY: u64 = 256;
/// Reports the closed-loop door generator keeps queued in the client, so
/// the client's own in-flight window (128) is what limits the flow.
pub const DOOR_BACKLOG: usize = 512;
/// A ladder step passes `ladder.max_rate_ok_hz` when nothing was shed,
/// nothing was left unfinished, and p99 stayed within this.
pub const RATE_OK_P99_NANOS: u64 = 50_000_000;
/// A ladder step whose generator ran later than this at p99 is invalid.
pub const GEN_LATE_LIMIT_NANOS: u64 = 1_000_000;

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "door-light",
        why: "cheap engine (1 500 places) behind the real socket: wire, session, admission, pump, hand-off and acks are the work; net and driver-stack changes must show here, engine changes must not",
        sut: Sut::Door { durable: false },
        units: 150,
        places: 1_500,
        tick_dt: 0.1,
        rates: [1_500, 3_000, 4_300],
        stream: 500_000,
    },
    Workload {
        name: "door-durable",
        why: "everything on, as production runs it: Table III engine, fdatasync'd WAL append per report, A/B checkpoint every 256, then kill-and-recover cycles that read what the feed wrote",
        sut: Sut::Door { durable: true },
        units: 150,
        places: 15_000,
        tick_dt: 1.0,
        rates: [1_000, 2_000, 2_900],
        stream: 160_000,
    },
    Workload {
        name: "engine-mem",
        why: "the paper's Fig. 4/9 number: sequential OptCtup over memory at Table III, no net, no disk, no threads; net, durable, parallel and cache changes must not move it",
        sut: Sut::EngineMem,
        units: 150,
        places: 15_000,
        tick_dt: 1.0,
        rates: [3_500, 7_000, 20_000],
        stream: 750_000,
    },
    Workload {
        name: "engine-disk",
        why: "sharded engine (2 shards, batches of 32) over a 64-page cache over a ~113-page simulated disk: storage and parallel coordination are the work, the working set exceeds the cache",
        sut: Sut::EngineDisk,
        units: 150,
        places: 15_000,
        tick_dt: 1.0,
        rates: [2_000, 4_000, 16_000],
        stream: 660_000,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How a run's `--seconds` are spent. The untraced run gives all of them
/// to the closed phase; the traced run takes 15 % for a closed phase of
/// its own and 15 % for each ladder step, and spends the rest on probes
/// that are sized in reports, not seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Closed phase length, seconds.
    pub closed_secs: f64,
    /// Length of each ladder step, seconds; `None` skips the open phase.
    pub step_secs: Option<f64>,
    /// Build-and-drop cycles.
    pub setup_cycles: usize,
    /// Warm-up reports.
    pub warmup: usize,
    /// Reports each flat per-layer loop runs.
    pub probe_reports: usize,
    /// Divides the ladder rates and the pre-generated stream
    /// (`--scale tiny` only).
    pub rate_div: u64,
}

impl Plan {
    /// The untraced run's plan for `seconds` of measurement at `scale`
    /// (`"full"` or `"tiny"`).
    pub fn new(seconds: f64, scale: &str) -> Result<Plan, String> {
        match scale {
            "full" => Ok(Plan {
                closed_secs: seconds,
                step_secs: None,
                setup_cycles: SETUP_CYCLES,
                warmup: WARMUP,
                probe_reports: 20_000,
                rate_div: 1,
            }),
            // For the smoke test: same code path, a second of work.
            "tiny" => Ok(Plan {
                closed_secs: seconds,
                step_secs: None,
                setup_cycles: 2,
                warmup: 200,
                probe_reports: 600,
                rate_div: 4,
            }),
            other => Err(format!("unknown --scale {other:?} (full, tiny)")),
        }
    }

    /// The traced run's short visit to the workload's real system.
    pub fn traced(self, seconds: f64) -> Plan {
        Plan {
            closed_secs: seconds * 0.15,
            step_secs: Some(seconds * 0.15),
            ..self
        }
    }
}

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// The share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// End-to-end metrics, measured with tracing off. Bounds are at least
/// three times the widest spread (IQR / median over ten seeds) seen on the
/// reference box for any workload; see README.md, "Bounds".
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "reports_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_kreport",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.15,
    },
];

/// Pipeline stages read back from the shipped `SpanSink`, by
/// `Stage::label()`.
pub const STAGES: [&str; 9] = [
    "client-send",
    "session-admit",
    "queue-wait",
    "engine-apply",
    "shard-phase",
    "merge",
    "snapshot-publish",
    "wal-append",
    "checkpoint",
];

/// Per-layer metrics that are not `stage.<label>.*`.
pub const PER_LAYER_FIXED: [MetricDef; 76] = [
    // net
    ("net.wire.encode_ns", "ns"),
    ("net.wire.decode_ns", "ns"),
    ("net.wire.bytes_per_report", "count"),
    ("net.session.ns", "ns"),
    ("net.admission.ns", "ns"),
    ("net.door_null.reports_per_s", "1/s"),
    ("net.door.reports_per_s", "1/s"),
    ("net.ingest_wait_p50_us", "us"),
    ("net.ingest_wait_p99_us", "us"),
    ("net.shed_share", "ratio"),
    ("net.replays_suppressed", "count"),
    ("net.reconnects", "count"),
    // driver stack
    ("ingest.gate_admit_ns", "ns"),
    ("supervisor.handoff_ns", "ns"),
    ("supervisor.overhead_ns", "ns"),
    ("supervisor.checkpoints_taken", "count"),
    ("server.ingest_ns", "ns"),
    // opt
    ("opt.update_p50_us", "us"),
    ("opt.update_p99_us", "us"),
    ("opt.maintain_share", "ratio"),
    ("opt.access_share", "ratio"),
    ("opt.cells_per_update", "count"),
    ("opt.places_loaded_per_update", "count"),
    ("opt.lb_decrements_per_update", "count"),
    ("opt.doo_suppressed_share", "ratio"),
    ("opt.maintained_places", "count"),
    ("opt.result_change_share", "ratio"),
    // parallel
    ("parallel.batch_p50_us", "us"),
    ("parallel.batch_p99_us", "us"),
    ("parallel.critical_share", "ratio"),
    ("parallel.coord_us_per_batch", "us"),
    ("parallel.fanout_per_update", "count"),
    ("parallel.merge_skip_share", "ratio"),
    // storage
    ("storage.mem.read_ns", "ns"),
    ("storage.cache.self_ns_per_read", "ns"),
    ("storage.disk.read_p50_us", "us"),
    ("storage.disk.read_p99_us", "us"),
    ("storage.disk.page_decode_ns", "ns"),
    ("storage.cache.hit_ratio", "ratio"),
    ("storage.cache.evictions", "count"),
    ("storage.cache.prefetch_hits", "count"),
    ("storage.pages_read", "count"),
    ("storage.cell_reads", "count"),
    ("storage.records_read", "count"),
    // durable
    ("durable.wal_append_p50_us", "us"),
    ("durable.wal_append_p99_us", "us"),
    ("durable.wal_bytes_per_report", "count"),
    ("durable.checkpoint_write_ms", "ms"),
    ("durable.recover_ms", "ms"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.decode_ms", "ms"),
    ("checkpoint.bytes", "count"),
    // spatial, set-up, generator
    ("spatial.relation_classify_ns", "ns"),
    ("spatial.touched_cells_ns", "ns"),
    ("spatial.rtree_bulk_load_ms", "ms"),
    ("setup.store_build_ms", "ms"),
    ("setup.engine_init_ms", "ms"),
    ("setup.server_bind_ms", "ms"),
    ("mogen.stream_build_s", "s"),
    ("gen.late_p99_us", "us"),
    ("ladder.r2_p50_us", "us"),
    ("ladder.r2_p99_us", "us"),
    ("ladder.max_rate_ok_hz", "1/s"),
    // observability
    ("obs.span_record_ns", "ns"),
    ("obs.trace_overhead_share", "ratio"),
    ("obs.trace_overhead_share_64", "ratio"),
    ("stage.e2e_publish.p50_us", "us"),
    ("stage.e2e_publish.p99_us", "us"),
    ("stage.unattributed_permille", "permille"),
    // the workload's own path, replayed stage by stage under spans
    ("layers.accounted_share", "ratio"),
    ("layers.unattributed_share", "ratio"),
    ("layers.net_share", "ratio"),
    ("layers.engine_share", "ratio"),
    ("layers.storage_share", "ratio"),
    ("layers.durable_share", "ratio"),
    ("layers.parallel_share", "ratio"),
];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for stage in STAGES {
        all.push((format!("stage.{stage}.p50_us"), "us"));
        all.push((format!("stage.{stage}.p99_us"), "us"));
    }
    all
}

/// Per-layer metrics for which more is better; for all others less is.
const HIGHER_IS_BETTER: [&str; 9] = [
    "net.door_null.reports_per_s",
    "net.door.reports_per_s",
    "opt.doo_suppressed_share",
    "parallel.critical_share",
    "parallel.merge_skip_share",
    "storage.cache.hit_ratio",
    "storage.cache.prefetch_hits",
    "ladder.max_rate_ok_hz",
    "layers.accounted_share",
];

/// Seconds one driver run measures (`run_seconds`).
pub const RUN_SECONDS: u32 = 15;

/// `BENCHMARK.json`, generated from the definitions above so the contract
/// and the code cannot drift apart; `ledger contract` prints it and the
/// smoke test holds the committed file to it.
pub fn contract() -> Json {
    let direction = |higher: bool| Json::str(if higher { "higher" } else { "lower" });
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "ledger/Cargo.toml",
        "--bin",
        "ledger",
        "--",
        "bench",
    ];
    Json::obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|&c| Json::str(c)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("ledger")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", direction(m.higher_is_better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|(name, unit)| {
                        let higher = HIGHER_IS_BETTER.contains(&name.as_str());
                        Json::obj(vec![
                            ("name", Json::Str(name)),
                            ("unit", Json::str(unit)),
                            ("better", direction(higher)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The constants of a workload, as recorded in result files; `ledger
/// diff` refuses to compare files where they differ.
pub fn constants(w: &Workload) -> Json {
    Json::obj(vec![
        ("units", Json::Num(f64::from(w.units))),
        ("places", Json::Num(f64::from(w.places))),
        ("tick_dt", Json::Num(w.tick_dt)),
        ("granularity", Json::Num(f64::from(GRANULARITY))),
        ("k", Json::Num(K as f64)),
        ("delta", Json::Num(DELTA as f64)),
        ("radius", Json::Num(RADIUS)),
        (
            "rates",
            Json::Arr(w.rates.iter().map(|&r| Json::Num(r as f64)).collect()),
        ),
        ("stream", Json::Num(w.stream as f64)),
        ("warmup", Json::Num(WARMUP as f64)),
    ])
}

/// Whether `name` fits the benchmark's name grammar: starts with a letter
/// or digit, at most 64 of letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
