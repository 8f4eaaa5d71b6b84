//! The system under test, as the benchmark sees it.
//!
//! Every call the benchmark makes into the program goes through this
//! module, so the public API surface the benchmark depends on is listed
//! in one place: a later change that moves or renames one of these items
//! has exactly one file of the benchmark to follow up in. Nothing here
//! reaches past `pub` items, and nothing here decides what to measure —
//! [`crate::workloads`] and [`crate::layers`] do.

use crate::spec::{self, Workload};
use ctup_core::cells::touched_cells;
use ctup_core::checkpoint::Checkpoint;
use ctup_core::config::{CtupConfig, QueryMode};
use ctup_core::ingest::{stamp_stream, IngestConfig, IngestGate, TracedReport};
use ctup_core::net::{
    AdmissionConfig, AdmissionQueue, ClientConfig, Conn, CountingSink, Dialer, EngineSink,
    FeedClient, FrameDecoder, FrameWriter, IngestServer, Message, NetServerConfig, NetStats,
    PipelineSink, QueuedReport, SessionConfig, SessionRegistry,
};
use ctup_core::supervisor::{ResilienceConfig, SupervisedPipeline};
use ctup_core::{
    CtupAlgorithm, DurableState, OptCtup, Oracle, ResilienceStats, Server, ShardedCtup,
};
use ctup_mogen::{PlaceGenConfig, Workload as Mogen, WorkloadParams};
use ctup_obs::{SpanSink, Stage};
use ctup_spatial::{CellId, CellLayout, Circle, Grid, Rect, Relation};
use ctup_storage::{
    decode_page, encode_pages, CachedStore, CellLocalStore, PagedDiskStore, PlaceStore,
    StorageError, StorageStats,
};
use std::borrow::Cow;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use ctup_core::algorithm::UpdateStats;
pub use ctup_core::ingest::StampedUpdate;
pub use ctup_core::metrics::Metrics;
pub use ctup_core::net::{ClientStats, NetStatsSnapshot};
pub use ctup_core::report::build_info;
pub use ctup_core::supervisor::SupervisedReport;
pub use ctup_core::types::{LocationUpdate, Place, TopKEntry};
pub use ctup_obs::now_nanos;
pub use ctup_spatial::Point;
pub use ctup_storage::StorageStatsSnapshot;

/// Fallible benchmark steps carry a message saying which step failed.
pub type Res<T> = Result<T, String>;

fn ctx<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

// ---------------------------------------------------------------- inputs

/// One run's generated inputs. The program only ever sees these.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The place set.
    pub places: Vec<Place>,
    /// Initial unit positions, in unit-id order.
    pub units: Vec<Point>,
    /// The report stream, stamped the way a well-behaved fleet would.
    pub stream: Vec<StampedUpdate>,
    /// Generator cost (outside `setup_s`).
    pub build_secs: f64,
}

/// Generates places, units and `reports` location reports with
/// `ctup-mogen` from `seed`.
pub fn generate(w: &Workload, seed: u64, reports: usize) -> Inputs {
    let start = Instant::now();
    let mut mogen = Mogen::generate(WorkloadParams {
        num_units: w.units,
        places: PlaceGenConfig {
            count: w.places,
            ..PlaceGenConfig::default()
        },
        tick_dt: w.tick_dt,
        seed,
        ..WorkloadParams::default()
    });
    let units = mogen.unit_positions();
    let stream = stamp_stream(
        mogen
            .next_updates(reports)
            .into_iter()
            .map(|u| LocationUpdate {
                unit: ctup_core::UnitId(u.object),
                new: u.to,
            }),
    );
    Inputs {
        places: mogen.places_vec(),
        units,
        stream,
        build_secs: start.elapsed().as_secs_f64(),
    }
}

/// Unit positions after `applied` was applied on top of `initial`.
pub fn final_positions(initial: &[Point], applied: &[StampedUpdate]) -> Vec<Point> {
    let mut units = initial.to_vec();
    for report in applied {
        if let Some(slot) = units.get_mut(report.update.unit.index()) {
            *slot = report.update.new;
        }
    }
    units
}

fn query_config() -> CtupConfig {
    CtupConfig {
        mode: QueryMode::TopK(spec::K),
        protection_radius: spec::RADIUS,
        delta: spec::DELTA,
        ..CtupConfig::paper_default()
    }
}

fn grid() -> Grid {
    Grid::unit_square(spec::GRANULARITY)
}

// ---------------------------------------------------------------- oracle

/// Brute-force ground truth for one set of unit positions.
#[derive(Debug)]
pub struct Truth {
    oracle: Oracle,
    units: Vec<Point>,
}

impl Truth {
    /// Ground truth over `places` with units at `units`.
    pub fn new(places: &[Place], units: Vec<Point>) -> Truth {
        Truth {
            oracle: Oracle::new(places.to_vec()),
            units,
        }
    }

    /// The exact top-k.
    pub fn expected(&self) -> Vec<TopKEntry> {
        self.oracle
            .result(&self.units, spec::RADIUS, QueryMode::TopK(spec::K))
    }

    /// Checks `got` against `expected` (normally [`Truth::expected`]): the
    /// safety sequences must be equal — place ids may differ among entries
    /// tied at `SK`, ties are unordered by definition — and every reported
    /// entry must carry its place's true safety.
    pub fn check(&self, got: &[TopKEntry], expected: &[TopKEntry]) -> Res<()> {
        let safeties = |entries: &[TopKEntry]| entries.iter().map(|e| e.safety).collect::<Vec<_>>();
        if safeties(got) != safeties(expected) {
            return Err(format!(
                "top-k safeties differ from the oracle: got {:?}, expected {:?}",
                safeties(got),
                safeties(expected)
            ));
        }
        for entry in got {
            let Some(place) = self.oracle.places().iter().find(|p| p.id == entry.place) else {
                return Err(format!(
                    "{:?} reported but not in the data set",
                    entry.place
                ));
            };
            let truth = self.oracle.safety_of(place, &self.units, spec::RADIUS);
            if truth != entry.safety {
                return Err(format!(
                    "{:?} reported with safety {} but the oracle says {truth}",
                    entry.place, entry.safety
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- stores

/// A `PlaceStore` wrapper that times every `read_cell` it forwards: the
/// benchmark's span around the storage layer, placed above and below the
/// cache. Implements the program's public store trait and forwards
/// everything else untouched.
pub struct TimedStore {
    inner: Arc<dyn PlaceStore>,
    reads: AtomicU64,
    nanos: AtomicU64,
    /// Per-read durations, kept only when asked for (percentiles).
    samples: Option<Mutex<Vec<u32>>>,
}

impl std::fmt::Debug for TimedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedStore")
            .field("reads", &self.reads())
            .finish_non_exhaustive()
    }
}

impl TimedStore {
    /// Wraps `inner`; `keep_samples` records every read's duration.
    pub fn new(inner: Arc<dyn PlaceStore>, keep_samples: bool) -> Arc<TimedStore> {
        Arc::new(TimedStore {
            inner,
            reads: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            samples: keep_samples.then(|| Mutex::new(Vec::new())),
        })
    }

    /// Reads forwarded so far.
    pub fn reads(&self) -> u64 {
        // Relaxed: a statistic, read after the threads that bump it joined.
        self.reads.load(Ordering::Relaxed)
    }

    /// Total nanoseconds spent inside the wrapped `read_cell`.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// The recorded per-read durations in nanoseconds, ascending.
    pub fn sorted_samples(&self) -> Vec<u64> {
        let mut v: Vec<u64> = match &self.samples {
            Some(m) => match m.lock() {
                Ok(g) => g.iter().map(|&n| u64::from(n)).collect(),
                Err(p) => p.into_inner().iter().map(|&n| u64::from(n)).collect(),
            },
            None => Vec::new(),
        };
        v.sort_unstable();
        v
    }
}

impl PlaceStore for TimedStore {
    fn grid(&self) -> &Grid {
        self.inner.grid()
    }
    fn num_places(&self) -> usize {
        self.inner.num_places()
    }
    fn read_cell(&self, cell: CellId) -> Result<Cow<'_, [Place]>, StorageError> {
        let start = Instant::now();
        let out = self.inner.read_cell(cell);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        if let Some(samples) = &self.samples {
            if let Ok(mut guard) = samples.lock() {
                guard.push(u32::try_from(nanos).unwrap_or(u32::MAX));
            }
        }
        out
    }
    fn cell_extent_margin(&self, cell: CellId) -> f64 {
        self.inner.cell_extent_margin(cell)
    }
    fn cell_pages(&self, cell: CellId) -> u64 {
        self.inner.cell_pages(cell)
    }
    fn layout(&self) -> CellLayout {
        self.inner.layout()
    }
    fn prefetch(&self, cells: &[CellId]) {
        self.inner.prefetch(cells);
    }
    fn wants_prefetch(&self) -> bool {
        self.inner.wants_prefetch()
    }
    fn stats(&self) -> &StorageStats {
        self.inner.stats()
    }
    fn for_each_place(&self, f: &mut dyn FnMut(&Place)) -> Result<(), StorageError> {
        self.inner.for_each_place(f)
    }
}

/// The memory-resident lower level (`CellLocalStore`, G = 10).
pub fn mem_store(inputs: &Inputs) -> Arc<dyn PlaceStore> {
    Arc::new(CellLocalStore::build(grid(), inputs.places.clone()))
}

/// The paged lower level of `engine-disk`, with the benchmark's timers
/// above and below the cache when `timed`.
pub struct DiskStack {
    /// What the engine reads through.
    pub top: Arc<dyn PlaceStore>,
    /// Timer above the cache (hits and misses).
    pub above: Option<Arc<TimedStore>>,
    /// Timer below the cache (misses and re-warms only).
    pub below: Option<Arc<TimedStore>>,
    /// Pages on the simulated disk.
    pub disk_pages: usize,
}

impl std::fmt::Debug for DiskStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStack")
            .field("disk_pages", &self.disk_pages)
            .finish_non_exhaustive()
    }
}

/// `CachedStore` (64 pages) over `PagedDiskStore` (20 µs/page, Z-order).
pub fn disk_store(inputs: &Inputs, timed: bool) -> DiskStack {
    let disk = Arc::new(PagedDiskStore::build_with_layout(
        grid(),
        inputs.places.clone(),
        spec::PAGE_LATENCY_NANOS,
        CellLayout::ZOrder,
    ));
    let disk_pages = disk.num_pages();
    let below = timed.then(|| TimedStore::new(disk.clone(), true));
    let under_cache: Arc<dyn PlaceStore> = match &below {
        Some(t) => t.clone(),
        None => disk,
    };
    let cached: Arc<dyn PlaceStore> = Arc::new(CachedStore::new(under_cache, spec::CACHE_PAGES));
    let above = timed.then(|| TimedStore::new(cached.clone(), false));
    let top: Arc<dyn PlaceStore> = match &above {
        Some(t) => t.clone(),
        None => cached,
    };
    DiskStack {
        top,
        above,
        below,
        disk_pages,
    }
}

// --------------------------------------------------------------- engines

/// `engine-mem`: sequential `OptCtup`.
#[derive(Debug)]
pub struct MemEngine {
    engine: OptCtup,
}

impl MemEngine {
    /// Runs the paper's initialization over `store`.
    pub fn build(inputs: &Inputs, store: Arc<dyn PlaceStore>) -> Res<MemEngine> {
        let engine = ctx(
            "OptCtup::new",
            OptCtup::new(query_config(), store, &inputs.units),
        )?;
        Ok(MemEngine { engine })
    }

    /// `OptCtup::handle_update`.
    pub fn apply(&mut self, update: LocationUpdate) -> Res<UpdateStats> {
        ctx("OptCtup::handle_update", self.engine.handle_update(update))
    }

    /// The monitored result.
    pub fn result(&self) -> Vec<TopKEntry> {
        self.engine.result()
    }

    /// Cumulative logical counters.
    pub fn metrics(&self) -> Metrics {
        self.engine.metrics().clone()
    }

    /// Hands the engine to the event-deriving server wrapper.
    pub fn into_server(self) -> EventServer {
        EventServer {
            server: Server::new(self.engine),
        }
    }
}

/// `Server<OptCtup>`: apply plus event derivation, what the supervisor's
/// worker runs per report.
#[derive(Debug)]
pub struct EventServer {
    server: Server<OptCtup>,
}

impl EventServer {
    /// `Server::ingest`; returns the events derived and the update's cost.
    pub fn ingest(&mut self, update: LocationUpdate) -> Res<(usize, UpdateStats)> {
        let (events, stats) = ctx("Server::ingest", self.server.ingest(update))?;
        Ok((events.len(), stats))
    }

    /// The engine's cumulative counters.
    pub fn metrics(&self) -> Metrics {
        self.server.algorithm().metrics().clone()
    }

    /// Places currently maintained.
    pub fn maintained_places(&self) -> usize {
        self.server.algorithm().maintained_places()
    }

    /// `OptCtup::checkpoint`.
    pub fn checkpoint(&self) -> Snapshotted {
        Snapshotted(self.server.algorithm().checkpoint())
    }
}

/// A captured `Checkpoint`.
#[derive(Debug, Clone)]
pub struct Snapshotted(Checkpoint);

impl Snapshotted {
    /// `Checkpoint::write` into memory.
    pub fn encode(&self) -> Res<Vec<u8>> {
        let mut body = Vec::new();
        ctx("Checkpoint::write", self.0.write(&mut body))?;
        Ok(body)
    }

    /// `Checkpoint::read`; returns the units it restored.
    pub fn decode(body: &[u8]) -> Res<usize> {
        ctx("Checkpoint::read", Checkpoint::read(body)).map(|c| c.unit_positions.len())
    }
}

/// `engine-disk`: `ShardedCtup` under the Z-order layout.
#[derive(Debug)]
pub struct DiskEngine {
    engine: ShardedCtup,
}

impl DiskEngine {
    /// Spawns the shard workers and runs their initialization.
    pub fn build(inputs: &Inputs, store: Arc<dyn PlaceStore>) -> Res<DiskEngine> {
        let engine = ctx(
            "ShardedCtup::new_with_layout",
            ShardedCtup::new_with_layout(
                query_config(),
                store,
                &inputs.units,
                spec::SHARDS,
                CellLayout::ZOrder,
            ),
        )?;
        Ok(DiskEngine { engine })
    }

    /// `ShardedCtup::handle_batch`.
    pub fn apply_batch(&mut self, batch: Vec<LocationUpdate>) -> Res<UpdateStats> {
        ctx("ShardedCtup::handle_batch", self.engine.handle_batch(batch))
    }

    /// The monitored result.
    pub fn result(&self) -> Vec<TopKEntry> {
        self.engine.result()
    }

    /// Cumulative counters, summed over shards.
    pub fn metrics(&self) -> Metrics {
        self.engine.metrics().clone()
    }

    /// Batches whose global merge was skipped.
    pub fn merge_skips(&self) -> u64 {
        self.engine.merge_skips()
    }

    /// How many shards own at least one cell the move `old -> new`
    /// touches: who has to hear about this update for the result to be
    /// exact. From `shard_map()` and `touched_cells`, both public.
    pub fn fanout(&self, old: Point, new: Point) -> u32 {
        let store = self.engine.store();
        let cells = touched_cells(
            store.grid(),
            &Circle::new(old, spec::RADIUS),
            &Circle::new(new, spec::RADIUS),
        );
        let map = self.engine.shard_map();
        let mut seen = 0u64;
        for cell in cells {
            seen |= 1 << map.shard_of(cell).min(63);
        }
        seen.count_ones()
    }
}

// ------------------------------------------------------------- front door

/// A loopback connection that never blocks. Socket timeouts on Linux are
/// rounded up to scheduler ticks (8 ms on the reference box), which no
/// open-loop generator can pace against; a non-blocking socket makes
/// `FeedClient::step` return at once and leaves the waiting to the
/// generator. This is the one knob of the client the benchmark turns.
#[derive(Debug)]
struct PollingDialer {
    addr: SocketAddr,
}

impl Dialer for PollingDialer {
    fn dial(&mut self) -> std::io::Result<Box<dyn Conn>> {
        let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Box::new(stream))
    }
}

/// How to open the front door.
#[derive(Debug, Clone, Default)]
pub struct DoorOptions {
    /// Durable state directory; `None` keeps checkpoints in memory.
    pub state_dir: Option<PathBuf>,
    /// Shared span sink for client, door and supervisor; `None` = off.
    pub spans: Option<Arc<SpanSink>>,
    /// Head sampling rate when `spans` is set (1 = every report).
    pub trace_every: u64,
    /// Serve an `overload::CountingSink` instead of an engine: the door's
    /// ceiling with nothing behind it.
    pub null_engine: bool,
}

/// `FeedClient` -> loopback TCP -> `IngestServer` -> `PipelineSink` ->
/// `SupervisedPipeline<OptCtup>`, configured as `ctup serve` does: default
/// `NetServerConfig` (queue 4096, session quota 256, `io_tick` 25 ms),
/// default `ClientConfig` (window 128), `checkpoint_every` 256, pipeline
/// capacity 4096. No `RecoveryPlan` is installed: no run kills the engine
/// behind a live door.
pub struct Door {
    server: IngestServer,
    sink: Option<Arc<PipelineSink>>,
    null: Option<Arc<CountingSink>>,
    client: FeedClient,
}

impl std::fmt::Debug for Door {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Door")
            .field("addr", &self.server.local_addr())
            .finish_non_exhaustive()
    }
}

/// Everything the door's three parties counted.
#[derive(Debug)]
pub struct DoorReport {
    /// The client's terminal accounting.
    pub client: ClientStats,
    /// The server's counters.
    pub net: NetStatsSnapshot,
    /// The supervisor's final report (`None` behind a null engine).
    pub engine: Option<SupervisedReport>,
    /// Reports the null engine counted.
    pub null_accepted: u64,
}

impl Door {
    /// Engine init, pipeline spawn (with the base checkpoint when
    /// durable), bind, connect, handshake.
    pub fn open(store: Arc<dyn PlaceStore>, units: &[Point], options: &DoorOptions) -> Res<Door> {
        let mut net_config = NetServerConfig::default();
        net_config.state_dir.clone_from(&options.state_dir);
        net_config.spans.clone_from(&options.spans);
        net_config.trace_sample_every = options.trace_every;
        let (engine, sink, null): (Arc<dyn EngineSink>, _, _) = if options.null_engine {
            let null = Arc::new(CountingSink::default());
            (null.clone(), None, Some(null))
        } else {
            let monitor = ctx("OptCtup::new", OptCtup::new(query_config(), store, units))?;
            let initial = monitor.result();
            let resilience = ResilienceConfig {
                state_dir: options.state_dir.clone(),
                checkpoint_every: spec::CHECKPOINT_EVERY,
                spans: options.spans.clone(),
                ..ResilienceConfig::default()
            };
            let pipeline = SupervisedPipeline::spawn(monitor, resilience, spec::PIPELINE_CAPACITY);
            let sink = Arc::new(PipelineSink::new(pipeline, initial));
            (sink.clone(), Some(sink), None)
        };
        let server = ctx(
            "IngestServer::spawn",
            IngestServer::spawn("127.0.0.1:0", net_config, engine),
        )?;
        let client_config = ClientConfig {
            spans: options.spans.clone(),
            trace_sample_every: options.trace_every,
            ..ClientConfig::default()
        };
        let mut client = FeedClient::new(
            Box::new(PollingDialer {
                addr: server.local_addr(),
            }),
            client_config,
        );
        ctx("FeedClient handshake", client.step(Duration::from_secs(5)))?;
        Ok(Door {
            server,
            sink,
            null,
            client,
        })
    }

    /// `FeedClient::enqueue`.
    pub fn enqueue(&mut self, report: StampedUpdate) {
        self.client.enqueue(report);
    }

    /// One `FeedClient::step`; returns how many reports are terminal
    /// (acked or shed) now.
    pub fn step(&mut self) -> Res<u64> {
        ctx("FeedClient::step", self.client.step(Duration::from_secs(5)))?;
        let stats = self.client.stats();
        Ok(stats.acked + stats.shed_total())
    }

    /// Bye, server shutdown, pipeline shutdown; returns the accounting.
    pub fn close(self) -> Res<DoorReport> {
        let Door {
            server,
            sink,
            null,
            client,
        } = self;
        let client = client.finish();
        let net = server.shutdown();
        let engine = match sink {
            None => None,
            Some(mut sink) => {
                // The server's threads held the other clones; a straggling
                // handler may still be dropping its, so wait, bounded.
                let deadline = Instant::now() + Duration::from_secs(10);
                let pipeline = loop {
                    match Arc::try_unwrap(sink) {
                        Ok(inner) => break inner.into_pipeline(),
                        Err(back) if Instant::now() < deadline => {
                            sink = back;
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => return Err("a handler kept the engine sink".into()),
                    }
                };
                Some(pipeline.shutdown())
            }
        };
        Ok(DoorReport {
            client,
            net,
            engine,
            null_accepted: null.map_or(0, |n| n.accepted()),
        })
    }
}

// -------------------------------------------------- supervisor, durability

/// A bare `SupervisedPipeline<OptCtup>` (no socket in front).
#[derive(Debug)]
pub struct Supervised {
    pipeline: SupervisedPipeline,
}

impl Supervised {
    /// Spawns the worker; `state_dir` turns on the WAL and A/B slots,
    /// `kill_at` halts the worker before that effective update.
    pub fn spawn(
        inputs: &Inputs,
        store: Arc<dyn PlaceStore>,
        state_dir: Option<&Path>,
        kill_at: Option<u64>,
        spans: Option<Arc<SpanSink>>,
    ) -> Res<Supervised> {
        let monitor = ctx(
            "OptCtup::new",
            OptCtup::new(query_config(), store, &inputs.units),
        )?;
        let config = ResilienceConfig {
            state_dir: state_dir.map(Path::to_path_buf),
            checkpoint_every: spec::CHECKPOINT_EVERY,
            kill_at,
            spans,
            ..ResilienceConfig::default()
        };
        Ok(Supervised {
            pipeline: SupervisedPipeline::spawn(monitor, config, spec::PIPELINE_CAPACITY),
        })
    }

    /// `SupervisedPipeline::recover_from_dir`: newest slot, `OptCtup::
    /// restore`, journal replay, respawn.
    pub fn recover(dir: &Path, store: Arc<dyn PlaceStore>) -> Res<Supervised> {
        let config = ResilienceConfig {
            checkpoint_every: spec::CHECKPOINT_EVERY,
            ..ResilienceConfig::default()
        };
        let pipeline = ctx(
            "SupervisedPipeline::recover_from_dir",
            SupervisedPipeline::recover_from_dir::<OptCtup>(
                dir,
                store,
                config,
                spec::PIPELINE_CAPACITY,
            ),
        )?;
        Ok(Supervised { pipeline })
    }

    /// `SupervisedPipeline::send` (`send_traced` when `trace != 0`);
    /// `false` once the worker has stopped.
    pub fn send(&self, report: StampedUpdate, trace: u64) -> bool {
        let traced = TracedReport {
            report,
            trace,
            handed_nanos: 0,
        };
        self.pipeline.send_traced(traced).is_ok()
    }

    /// Drains the event channel so the worker never blocks publishing.
    pub fn drain_events(&self) -> usize {
        self.pipeline.events().try_iter().count()
    }

    /// Reports the worker has taken durable ownership of.
    pub fn durable_mark(&self) -> u64 {
        self.pipeline.durable_mark()
    }

    /// Closes the channel, joins the worker.
    pub fn shutdown(self) -> SupervisedReport {
        self.pipeline.shutdown()
    }
}

/// `DurableState` opened on a directory, with its base checkpoint written.
#[derive(Debug)]
pub struct Journal {
    state: DurableState,
}

impl Journal {
    /// `DurableState::open` + the base `checkpoint` that starts a segment.
    pub fn open(dir: &Path, base: &Snapshotted) -> Res<Journal> {
        let mut state = ctx("DurableState::open", DurableState::open(dir))?;
        ctx("DurableState::checkpoint", state.checkpoint(&base.0))?;
        Ok(Journal { state })
    }

    /// `DurableState::append` (write + fdatasync).
    pub fn append(&mut self, report: StampedUpdate) -> Res<()> {
        ctx("DurableState::append", self.state.append(report))
    }

    /// `DurableState::checkpoint` (encode, write temp, fsync, rename,
    /// fsync directory, rotate the journal).
    pub fn checkpoint(&mut self, snapshot: &Snapshotted) -> Res<()> {
        ctx(
            "DurableState::checkpoint",
            self.state.checkpoint(&snapshot.0),
        )
    }
}

// ------------------------------------------------------------ flat loops

fn per_call(start: Instant, calls: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

fn report_frame(seq: u64, r: &StampedUpdate) -> Message {
    Message::Report {
        seq,
        unit_seq: r.seq,
        ts: r.ts,
        unit: r.update.unit.0,
        x: r.update.new.x,
        y: r.update.new.y,
        trace: 0,
    }
}

/// Nanoseconds per call of `Relation::classify` (each report's new
/// protecting region against its own cell) and of `cells::touched_cells`
/// (each move).
pub fn spatial_loops(inputs: &Inputs, stream: &[StampedUpdate]) -> (f64, f64) {
    let grid = grid();
    let start = Instant::now();
    for r in stream {
        let region = Circle::new(r.update.new, spec::RADIUS);
        let rect = grid.cell_rect(grid.cell_of(r.update.new));
        std::hint::black_box(Relation::classify(&region, &rect));
    }
    let classify = per_call(start, stream.len());
    let mut units = inputs.units.clone();
    let start = Instant::now();
    for r in stream {
        let Some(slot) = units.get_mut(r.update.unit.index()) else {
            continue;
        };
        let old = std::mem::replace(slot, r.update.new);
        std::hint::black_box(touched_cells(
            &grid,
            &Circle::new(old, spec::RADIUS),
            &Circle::new(r.update.new, spec::RADIUS),
        ));
    }
    (classify, per_call(start, stream.len()))
}

/// `RTree::bulk_load` of the place set, milliseconds.
pub fn rtree_bulk_load_ms(inputs: &Inputs) -> f64 {
    let items: Vec<(Rect, u32)> = inputs
        .places
        .iter()
        .map(|p| (Rect::point(p.pos), p.id.0))
        .collect();
    let start = Instant::now();
    let tree = ctup_spatial::RTree::bulk_load(items);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(tree.len());
    ms
}

/// Nanoseconds per `SpanSink::record_stage`.
pub fn span_record(calls: usize) -> f64 {
    let sink = SpanSink::new(65_536);
    let start = Instant::now();
    for i in 0..calls as u64 {
        sink.record_stage(i + 1, Stage::EngineApply, 0, i, i + 10, true);
    }
    per_call(start, calls)
}

/// Nanoseconds per `CellLocalStore::read_cell`, every cell round robin.
pub fn mem_read(store: &Arc<dyn PlaceStore>, calls: usize) -> Res<f64> {
    let cells: Vec<CellId> = store.grid().cells().collect();
    let start = Instant::now();
    for i in 0..calls {
        std::hint::black_box(ctx("read_cell", store.read_cell(cells[i % cells.len()]))?);
    }
    Ok(per_call(start, calls))
}

/// Nanoseconds per `decode_page` (frame check, CRC, record decode) over
/// the pages the place set encodes to, round robin.
pub fn page_decode(inputs: &Inputs, calls: usize) -> Res<f64> {
    let pages = encode_pages(&inputs.places);
    if pages.is_empty() {
        return Err("no pages to decode".into());
    }
    let start = Instant::now();
    for i in 0..calls {
        let idx = i % pages.len();
        std::hint::black_box(ctx("decode_page", decode_page(&pages[idx], idx as u32))?);
    }
    Ok(per_call(start, calls))
}

/// `CellLocalStore::build`, milliseconds.
pub fn store_build_ms(inputs: &Inputs) -> f64 {
    let places = inputs.places.clone();
    let start = Instant::now();
    let store = CellLocalStore::build(grid(), places);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(store.num_places());
    ms
}

// ------------------------------------------------------- shipped span sink

/// A fresh `SpanSink` that will not overwrite anything while each thread
/// records at most `spans_per_thread` spans. The sink splits its capacity
/// evenly over 32 per-thread rings, so it has to be 32 times one ring.
pub fn span_sink(spans_per_thread: usize) -> Arc<SpanSink> {
    Arc::new(SpanSink::new(32 * spans_per_thread.max(1)))
}

/// One span read back from the shipped sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    /// Trace id.
    pub trace: u64,
    /// `Stage::label()`.
    pub stage: &'static str,
    /// Start, nanoseconds since the process anchor.
    pub start: u64,
    /// End, same clock.
    pub end: u64,
}

/// `SpanSink::snapshot()`, flattened: the spans and how many were
/// overwritten before they could be read.
pub fn drain_spans(sink: &SpanSink) -> (Vec<StageSpan>, u64) {
    let snapshot = sink.snapshot();
    let spans = snapshot
        .spans
        .iter()
        .map(|s| StageSpan {
            trace: s.trace,
            stage: s.stage.label(),
            start: s.start,
            end: s.end,
        })
        .collect();
    (spans, snapshot.spans_dropped)
}

/// The canonical causal chain of a fully traced report, by label.
pub fn canonical_chain() -> Vec<&'static str> {
    Stage::CANONICAL_CHAIN.iter().map(|s| s.label()).collect()
}

/// `LogHistogram::quantile` of the door's ingest-wait histogram,
/// nanoseconds: the counter production exposes, at its own resolution.
pub fn ingest_wait_quantile(net: &NetStatsSnapshot, q: f64) -> u64 {
    net.ingest_wait_nanos.quantile(q)
}

// ------------------------------------------------- the door, stage by stage

/// The front door's per-report stages as separate calls on one thread, in
/// the order a report meets them: what the traced pass replays a stream
/// through, one span per call.
#[derive(Debug)]
pub struct DoorStages {
    writer: FrameWriter,
    decoder: FrameDecoder,
    wire: Vec<u8>,
    registry: SessionRegistry,
    session: u64,
    queue: AdmissionQueue,
    gate: IngestGate,
    gate_stats: ResilienceStats,
}

impl DoorStages {
    /// Fresh registry, queue and gate, configured as the server does.
    pub fn new(inputs: &Inputs) -> Res<DoorStages> {
        let stats = Arc::new(NetStats::default());
        let registry = SessionRegistry::new(SessionConfig::default(), stats.clone());
        let session = registry
            .open(0, Instant::now())
            .map_err(|e| format!("SessionRegistry::open: {e:?}"))?
            .session;
        Ok(DoorStages {
            writer: FrameWriter::new(),
            decoder: FrameDecoder::new(),
            wire: Vec::with_capacity(128),
            registry,
            session,
            queue: AdmissionQueue::new(AdmissionConfig::default(), stats),
            gate: IngestGate::new(IngestConfig {
                space: *grid().space(),
                num_units: inputs.units.len(),
                lease_ttl: None,
            }),
            gate_stats: ResilienceStats::default(),
        })
    }

    /// Client side: `FrameWriter::push` + flush into the wire buffer.
    pub fn encode(&mut self, seq: u64, report: &StampedUpdate) -> Res<()> {
        self.wire.clear();
        self.writer.push(&report_frame(seq, report));
        ctx(
            "FrameWriter::flush_into",
            self.writer.flush_into(&mut self.wire),
        )
        .map(|_| ())
    }

    /// Bytes of the frame last encoded.
    pub fn wire_len(&self) -> usize {
        self.wire.len()
    }

    /// Handler side: `FrameDecoder::read_from` the wire buffer.
    pub fn decode(&mut self) -> Res<()> {
        let mut cursor = std::io::Cursor::new(&self.wire);
        match self.decoder.read_from(&mut cursor) {
            Ok(Message::Report { .. }) => Ok(()),
            Ok(other) => Err(format!("decoded {other:?}, expected a report")),
            Err(e) => Err(format!("FrameDecoder::read_from: {e}")),
        }
    }

    /// Handler side: `classify` + `note_enqueued`.
    pub fn session_admit(&mut self, seq: u64) {
        std::hint::black_box(self.registry.classify(self.session, seq));
        self.registry.note_enqueued(self.session, seq);
    }

    /// Handler to pump: `try_enqueue` + `pop`.
    pub fn admission(&mut self, seq: u64, report: StampedUpdate) -> Res<()> {
        let item = QueuedReport {
            session: self.session,
            seq,
            report,
            enqueued_at: Instant::now(),
            trace: 0,
            enqueued_nanos: 0,
        };
        self.queue
            .try_enqueue(item)
            .map_err(|reason| format!("admission shed: {reason:?}"))?;
        self.queue
            .pop(Duration::ZERO)
            .map(|_| ())
            .ok_or_else(|| "admission queue lost a report".to_string())
    }

    /// Pump and handler: `drained` + `handled_up_to`.
    pub fn session_ack(&mut self, seq: u64) -> u64 {
        self.registry.drained(self.session, seq);
        self.registry.handled_up_to(self.session)
    }

    /// Supervisor: `IngestGate::admit`; the accepted update.
    pub fn gate(&mut self, report: StampedUpdate) -> Res<LocationUpdate> {
        let effective = self
            .gate
            .admit(report, &mut self.gate_stats)
            .map_err(|reason| format!("gate rejected a report: {reason}"))?;
        effective
            .last()
            .copied()
            .ok_or_else(|| "gate accepted a report into nothing".to_string())
    }
}
