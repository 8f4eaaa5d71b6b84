//! The traced run: the per-layer table.
//!
//! Nothing here feeds an end-to-end metric. Each probe below drives one
//! layer of the program through its public functions on this workload's
//! generated inputs and times the calls from outside; the last one replays
//! the workload's own path stage by stage on one thread under spans
//! (name, start, end, parent, shared report id), so that self time per
//! layer can be held against the untraced run's time per report and the
//! remainder — threads, syscalls, lock and channel hand-offs, waiting on
//! ticks — is reported as `layers.unattributed_share` rather than ignored.
//!
//! Every probe runs for every workload: a layer that is idle on a
//! workload's path is still priced on that workload's inputs, and the
//! `layers.*_share` rows say whether the path meets it at all.

use crate::drive::closed_loop;
use crate::spec::{self, Plan, Sut};
use crate::stats::{self, median, percentile, SpanRec, ROOT};
use crate::sut::{
    self, DiskEngine, Door, DoorOptions, DoorStages, Inputs, Journal, MemEngine, Res, Snapshotted,
    StageSpan, StampedUpdate, Supervised, TimedStore,
};
use crate::workloads::{
    build, finish_and_check, recovery_cycles, run_phases, DoorTarget, RunArgs, RunResult, StateDir,
    DRAIN_DEADLINE,
};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn us(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Mean nanoseconds per call of `f` over `calls` calls.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize) -> Res<()>) -> Res<f64> {
    let start = Instant::now();
    for i in 0..calls {
        f(i)?;
    }
    Ok(start.elapsed().as_nanos() as f64 / calls.max(1) as f64)
}

/// Flat loops over the layer functions cheap enough that a span per call
/// would cost more than the call.
fn flat_loops(out: &mut RunResult, inputs: &Inputs, probe: &[StampedUpdate]) -> Res<()> {
    // The door's stages, each alone in a loop (the replay runs the same
    // calls once per report under spans).
    let n = probe.len();
    let mut door = DoorStages::new(inputs)?;
    let encode = ns_per_call(n, |i| door.encode(i as u64 + 1, &probe[i]))?;
    let bytes = door.wire_len();
    let decode = ns_per_call(n, |_| door.decode())?;
    let session = ns_per_call(n, |i| {
        door.session_admit(i as u64 + 1);
        door.session_ack(i as u64 + 1);
        Ok(())
    })?;
    let admission = ns_per_call(n, |i| door.admission(i as u64 + 1, probe[i]))?;
    let gate = ns_per_call(n, |i| door.gate(probe[i]).map(|_| ()))?;
    out.push("net.wire.encode_ns", "ns", encode);
    out.push("net.wire.decode_ns", "ns", decode);
    out.push("net.wire.bytes_per_report", "count", bytes as f64);
    out.push("net.session.ns", "ns", session);
    out.push("net.admission.ns", "ns", admission);
    out.push("ingest.gate_admit_ns", "ns", gate);
    let (classify, touched) = sut::spatial_loops(inputs, probe);
    out.push("spatial.relation_classify_ns", "ns", classify);
    out.push("spatial.touched_cells_ns", "ns", touched);
    out.push(
        "spatial.rtree_bulk_load_ms",
        "ms",
        sut::rtree_bulk_load_ms(inputs),
    );
    out.push("obs.span_record_ns", "ns", sut::span_record(probe.len()));
    let store = sut::mem_store(inputs);
    out.push(
        "storage.mem.read_ns",
        "ns",
        sut::mem_read(&store, probe.len())?,
    );
    out.push(
        "storage.disk.page_decode_ns",
        "ns",
        sut::page_decode(inputs, probe.len() / 4 + 1)?,
    );
    out.push("mogen.stream_build_s", "s", inputs.build_secs);

    // Set-up, piece by piece; each the median of five.
    let five = |f: &mut dyn FnMut() -> Res<f64>| -> Res<f64> {
        let times: Res<Vec<f64>> = (0..5).map(|_| f()).collect();
        Ok(median(&times?))
    };
    out.push(
        "setup.store_build_ms",
        "ms",
        five(&mut || Ok(sut::store_build_ms(inputs)))?,
    );
    out.push(
        "setup.engine_init_ms",
        "ms",
        five(&mut || {
            let start = Instant::now();
            let engine = MemEngine::build(inputs, store.clone())?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            drop(engine);
            Ok(ms)
        })?,
    );
    out.push(
        "setup.server_bind_ms",
        "ms",
        five(&mut || {
            let options = DoorOptions {
                null_engine: true,
                ..DoorOptions::default()
            };
            let start = Instant::now();
            let door = Door::open(store.clone(), &inputs.units, &options)?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            door.close()?;
            Ok(ms)
        })?,
    );
    Ok(())
}

/// `Server::ingest` over a timed memory store, update by update: the
/// paper's Fig. 4/9 quantities, plus what the supervisor adds on top.
/// Returns bare nanoseconds per ingest for the supervisor comparison.
fn engine_probe(out: &mut RunResult, inputs: &Inputs, probe: &[StampedUpdate]) -> Res<f64> {
    let timed = TimedStore::new(sut::mem_store(inputs), false);
    let mut server = MemEngine::build(inputs, timed.clone())?.into_server();
    let mut walls = Vec::with_capacity(probe.len());
    let (mut maintain, mut access, mut cells) = (0u64, 0u64, 0u64);
    let began = Instant::now();
    for report in probe {
        let start = Instant::now();
        let (_events, cost) = server.ingest(report.update)?;
        walls.push(nanos(start.elapsed()));
        maintain += cost.maintain_nanos;
        access += cost.access_nanos;
        cells += cost.cells_accessed;
    }
    let ingest_ns = began.elapsed().as_nanos() as f64 / probe.len().max(1) as f64;
    walls.sort_unstable();
    let n = probe.len().max(1) as f64;
    let m = server.metrics();
    out.push("opt.update_p50_us", "us", us(percentile(&walls, 0.5)));
    out.push("opt.update_p99_us", "us", us(percentile(&walls, 0.99)));
    let phases = (maintain + access) as f64;
    out.push(
        "opt.maintain_share",
        "ratio",
        ratio(maintain as f64, phases),
    );
    out.push("opt.access_share", "ratio", ratio(access as f64, phases));
    out.push("opt.cells_per_update", "count", cells as f64 / n);
    out.push(
        "opt.places_loaded_per_update",
        "count",
        m.places_loaded as f64 / n,
    );
    out.push(
        "opt.lb_decrements_per_update",
        "count",
        m.lb_decrements as f64 / n,
    );
    out.push(
        "opt.doo_suppressed_share",
        "ratio",
        ratio(
            m.lb_decrements_suppressed as f64,
            (m.lb_decrements + m.lb_decrements_suppressed) as f64,
        ),
    );
    out.push(
        "opt.maintained_places",
        "count",
        server.maintained_places() as f64,
    );
    out.push(
        "opt.result_change_share",
        "ratio",
        m.result_changes as f64 / n,
    );
    out.push("server.ingest_ns", "ns", ingest_ns);

    // The checkpoint codec on the state those updates left behind.
    let snapshot = server.checkpoint();
    let mut body = Vec::new();
    let mut encode_ms = Vec::new();
    let mut decode_ms = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        body = snapshot.encode()?;
        encode_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        Snapshotted::decode(&body)?;
        decode_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    out.push("checkpoint.encode_ms", "ms", median(&encode_ms));
    out.push("checkpoint.decode_ms", "ms", median(&decode_ms));
    out.push("checkpoint.bytes", "count", body.len() as f64);
    out.notes.push(format!(
        "  engine probe: {} updates, {} cell reads through the timed store ({:.0} ns each)",
        probe.len(),
        timed.reads(),
        ratio(timed.nanos() as f64, timed.reads() as f64),
    ));
    Ok(ingest_ns)
}

/// The same updates through `SupervisedPipeline` without a state
/// directory: the hand-off, and what supervision adds per report.
fn supervisor_probe(
    out: &mut RunResult,
    inputs: &Inputs,
    probe: &[StampedUpdate],
    bare_ingest_ns: f64,
) -> Res<()> {
    let pipeline = Supervised::spawn(inputs, sut::mem_store(inputs), None, None, None)?;
    let mut handoff = 0u64;
    let began = Instant::now();
    for (i, &report) in probe.iter().enumerate() {
        let start = Instant::now();
        if !pipeline.send(report, 0) {
            return Err("the supervisor's worker stopped".into());
        }
        handoff += nanos(start.elapsed());
        if i % 256 == 255 {
            pipeline.drain_events();
            // Keep the 4096-slot channel between a quarter and a half
            // full: never empty, so the worker sets the pace, and never
            // full, so `send` is priced as a hand-off, not as a wait.
            while (i as u64 + 1).saturating_sub(pipeline.durable_mark()) > 2048 {
                std::thread::sleep(Duration::from_micros(50));
                pipeline.drain_events();
            }
        }
    }
    let report = pipeline.shutdown();
    let per_report = began.elapsed().as_nanos() as f64 / probe.len().max(1) as f64;
    if report.updates_processed != probe.len() as u64 {
        return Err(format!(
            "supervisor applied {} of {} reports",
            report.updates_processed,
            probe.len()
        ));
    }
    out.push(
        "supervisor.handoff_ns",
        "ns",
        handoff as f64 / probe.len().max(1) as f64,
    );
    out.push("supervisor.overhead_ns", "ns", per_report - bare_ingest_ns);
    out.push(
        "supervisor.checkpoints_taken",
        "count",
        report.metrics.resilience.checkpoints_taken as f64,
    );
    Ok(())
}

/// `ShardedCtup::handle_batch` over cache over paged disk, with the
/// benchmark's timers above and below the cache.
fn parallel_probe(out: &mut RunResult, inputs: &Inputs, probe: &[StampedUpdate]) -> Res<()> {
    let stack = sut::disk_store(inputs, true);
    let (Some(above), Some(below)) = (stack.above.clone(), stack.below.clone()) else {
        return Err("timed disk stack came without timers".into());
    };
    let mut engine = DiskEngine::build(inputs, stack.top.clone())?;
    // Fan-out is a property of the stream and the shard map; price it
    // outside the timed loop.
    let mut units = inputs.units.clone();
    let mut fanout = 0u64;
    for report in probe {
        if let Some(slot) = units.get_mut(report.update.unit.index()) {
            let old = std::mem::replace(slot, report.update.new);
            fanout += u64::from(engine.fanout(old, report.update.new));
        }
    }
    let io_before = stack.top.stats().snapshot();
    let (reads_before, above_before, below_before) = (above.reads(), above.nanos(), below.nanos());
    let mut walls = Vec::new();
    let (mut wall_sum, mut critical_sum) = (0u64, 0u64);
    for batch in probe.chunks(spec::BATCH) {
        let updates = batch.iter().map(|r| r.update).collect();
        let start = Instant::now();
        let cost = engine.apply_batch(updates)?;
        let wall = nanos(start.elapsed());
        walls.push(wall);
        wall_sum += wall;
        critical_sum += (cost.maintain_nanos + cost.access_nanos).min(wall);
    }
    let batches = walls.len().max(1) as f64;
    walls.sort_unstable();
    out.push("parallel.batch_p50_us", "us", us(percentile(&walls, 0.5)));
    out.push("parallel.batch_p99_us", "us", us(percentile(&walls, 0.99)));
    out.push(
        "parallel.critical_share",
        "ratio",
        ratio(critical_sum as f64, wall_sum as f64),
    );
    out.push(
        "parallel.coord_us_per_batch",
        "us",
        (wall_sum - critical_sum) as f64 / batches / 1e3,
    );
    out.push(
        "parallel.fanout_per_update",
        "count",
        fanout as f64 / probe.len().max(1) as f64,
    );
    out.push(
        "parallel.merge_skip_share",
        "ratio",
        engine.merge_skips() as f64 / batches,
    );

    let io = stack.top.stats().snapshot().since(&io_before);
    let demand_reads = (above.reads() - reads_before) as f64;
    let cache_self = (above.nanos() - above_before) as f64 - (below.nanos() - below_before) as f64;
    let disk = below.sorted_samples();
    out.push(
        "storage.cache.self_ns_per_read",
        "ns",
        ratio(cache_self.max(0.0), demand_reads),
    );
    out.push("storage.disk.read_p50_us", "us", us(percentile(&disk, 0.5)));
    out.push(
        "storage.disk.read_p99_us",
        "us",
        us(percentile(&disk, 0.99)),
    );
    out.push("storage.cache.hit_ratio", "ratio", io.cache_hit_ratio());
    out.push(
        "storage.cache.evictions",
        "count",
        io.cache_evictions as f64,
    );
    out.push(
        "storage.cache.prefetch_hits",
        "count",
        io.cache_prefetch_hits as f64,
    );
    out.push("storage.pages_read", "count", io.pages_read as f64);
    out.push("storage.cell_reads", "count", io.cell_reads as f64);
    out.push("storage.records_read", "count", io.records_read as f64);
    out.notes.push(format!(
        "  parallel probe: {} batches over a {}-page disk, {} demand reads, {} reads below the cache",
        walls.len(),
        stack.disk_pages,
        demand_reads,
        disk.len(),
    ));
    Ok(())
}

/// Percentiles of one stage's durations among `spans`, microseconds.
fn stage_percentiles(spans: &[StageSpan], stage: &str) -> (f64, f64) {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.stage == stage)
        .map(|s| s.end.saturating_sub(s.start))
        .collect();
    d.sort_unstable();
    (us(percentile(&d, 0.5)), us(percentile(&d, 0.99)))
}

/// WAL append, checkpoint write and recovery, called directly; then the
/// same through a durable supervisor with the shipped span sink on, for
/// the `wal-append` and `checkpoint` stage rows.
fn durable_probe(
    out: &mut RunResult,
    inputs: &Inputs,
    probe: &[StampedUpdate],
    state_root: &Path,
) -> Res<Vec<StageSpan>> {
    // One fdatasync per append: a tenth of the probe is plenty.
    let probe = &probe[..(probe.len() / 10)
        .max(spec::CHECKPOINT_EVERY as usize * 2)
        .min(probe.len())];
    let server = MemEngine::build(inputs, sut::mem_store(inputs))?.into_server();
    let snapshot = server.checkpoint();
    let dir = StateDir::create(state_root)?;
    let mut journal = Journal::open(dir.path(), &snapshot)?;
    let mut appends = Vec::with_capacity(probe.len());
    for &report in probe {
        let start = Instant::now();
        journal.append(report)?;
        appends.push(nanos(start.elapsed()));
    }
    let wal_bytes: u64 = std::fs::read_dir(dir.path())
        .map_err(|e| format!("reading {}: {e}", dir.path().display()))?
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".wal"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    let mut writes = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        journal.checkpoint(&snapshot)?;
        writes.push(start.elapsed().as_secs_f64() * 1e3);
    }
    appends.sort_unstable();
    out.push(
        "durable.wal_append_p50_us",
        "us",
        us(percentile(&appends, 0.5)),
    );
    out.push(
        "durable.wal_append_p99_us",
        "us",
        us(percentile(&appends, 0.99)),
    );
    out.push(
        "durable.wal_bytes_per_report",
        "count",
        wal_bytes as f64 / probe.len().max(1) as f64,
    );
    out.push("durable.checkpoint_write_ms", "ms", median(&writes));
    let recoveries = recovery_cycles(inputs, state_root, spec::RECOVERY_CYCLES)?;
    out.push("durable.recover_ms", "ms", median(&recoveries));

    // The worker records up to six spans per report.
    let sink = sut::span_sink(probe.len() * 6 + 64);
    let traced_dir = StateDir::create(state_root)?;
    let pipeline = Supervised::spawn(
        inputs,
        sut::mem_store(inputs),
        Some(traced_dir.path()),
        None,
        Some(sink.clone()),
    )?;
    for (i, &report) in probe.iter().enumerate() {
        if !pipeline.send(report, i as u64 + 1) {
            return Err("the durable supervisor's worker stopped".into());
        }
        if i % 256 == 255 {
            pipeline.drain_events();
        }
    }
    let report = pipeline.shutdown();
    if report.updates_processed != probe.len() as u64 {
        return Err(format!(
            "durable supervisor applied {} of {} reports",
            report.updates_processed,
            probe.len()
        ));
    }
    Ok(sut::drain_spans(&sink).0)
}

/// One closed-loop pass of `probe` through the socket path.
struct DoorPass {
    reports_per_s: f64,
    report: sut::DoorReport,
}

fn door_pass(inputs: &Inputs, probe: &[StampedUpdate], options: &DoorOptions) -> Res<DoorPass> {
    let door = Door::open(sut::mem_store(inputs), &inputs.units, options)?;
    let mut target = DoorTarget {
        door,
        stream: probe,
    };
    let outcome = closed_loop(
        &mut target,
        0,
        probe.len(),
        Duration::from_secs(3600),
        DRAIN_DEADLINE,
    )?;
    let report = target.door.close()?;
    if outcome.completed != probe.len() {
        return Err(format!(
            "door probe completed {} of {} reports",
            outcome.completed,
            probe.len()
        ));
    }
    Ok(DoorPass {
        reports_per_s: outcome.completed as f64 / outcome.wall.as_secs_f64().max(1e-9),
        report,
    })
}

/// The socket path on this workload's inputs: tracing off, every report
/// traced, one in 64 traced, and a null engine behind the door.
fn door_probe(
    out: &mut RunResult,
    inputs: &Inputs,
    probe: &[StampedUpdate],
    durable_spans: &[StageSpan],
) -> Res<()> {
    // A quarter of the probe: the closed loop through the socket runs at
    // the door's pace, not the engine's.
    let probe = &probe[..(probe.len() / 4).max(1)];
    let plain = door_pass(inputs, probe, &DoorOptions::default())?;
    let null = door_pass(
        inputs,
        probe,
        &DoorOptions {
            null_engine: true,
            ..DoorOptions::default()
        },
    )?;
    let traced_pass = |every: u64| -> Res<(DoorPass, Vec<StageSpan>, u64)> {
        // No thread of the path records more than four spans per report.
        let sink = sut::span_sink(probe.len() * 4 + 64);
        let pass = door_pass(
            inputs,
            probe,
            &DoorOptions {
                spans: Some(sink.clone()),
                trace_every: every,
                ..DoorOptions::default()
            },
        )?;
        let (spans, dropped) = sut::drain_spans(&sink);
        Ok((pass, spans, dropped))
    };
    let (every_1, spans, dropped) = traced_pass(1)?;
    let (every_64, _, _) = traced_pass(64)?;

    let net = &plain.report.net;
    out.push("net.door.reports_per_s", "1/s", plain.reports_per_s);
    out.push("net.door_null.reports_per_s", "1/s", null.reports_per_s);
    if null.report.null_accepted != probe.len() as u64 {
        return Err(format!(
            "null engine counted {} of {} reports",
            null.report.null_accepted,
            probe.len()
        ));
    }
    out.push(
        "net.ingest_wait_p50_us",
        "us",
        us(sut::ingest_wait_quantile(net, 0.5)),
    );
    out.push(
        "net.ingest_wait_p99_us",
        "us",
        us(sut::ingest_wait_quantile(net, 0.99)),
    );
    out.push(
        "net.shed_share",
        "ratio",
        ratio(net.shed_total() as f64, probe.len() as f64),
    );
    out.push(
        "net.replays_suppressed",
        "count",
        net.replays_suppressed as f64,
    );
    out.push(
        "net.reconnects",
        "count",
        plain.report.client.reconnects as f64,
    );
    out.push(
        "obs.trace_overhead_share",
        "ratio",
        1.0 - ratio(every_1.reports_per_s, plain.reports_per_s),
    );
    out.push(
        "obs.trace_overhead_share_64",
        "ratio",
        1.0 - ratio(every_64.reports_per_s, plain.reports_per_s),
    );

    // Per stage: the shipped sink's own spans. The two durable stages come
    // from the durable supervisor probe; this door has no state directory.
    for stage in spec::STAGES {
        let source = if matches!(stage, "wal-append" | "checkpoint") {
            durable_spans
        } else {
            &spans
        };
        let (p50, p99) = stage_percentiles(source, stage);
        out.push(format!("stage.{stage}.p50_us"), "us", p50);
        out.push(format!("stage.{stage}.p99_us"), "us", p99);
    }
    // Per trace: client-send start to snapshot-publish end, and the part
    // of that window no stage of the canonical chain covers.
    let chain = sut::canonical_chain();
    let mut by_trace: HashMap<u64, Vec<&StageSpan>> = HashMap::new();
    for span in &spans {
        by_trace.entry(span.trace).or_default().push(span);
    }
    let mut e2e = Vec::new();
    let mut unattributed = Vec::new();
    for spans in by_trace.values() {
        let complete = chain
            .iter()
            .all(|stage| spans.iter().any(|s| s.stage == *stage));
        if !complete {
            continue;
        }
        let on_chain = || spans.iter().filter(|s| chain.contains(&s.stage));
        let start = on_chain().map(|s| s.start).min().unwrap_or(0);
        let end = on_chain().map(|s| s.end).max().unwrap_or(0);
        let window = end.saturating_sub(start);
        let covered: u64 = on_chain().map(|s| s.end.saturating_sub(s.start)).sum();
        if window > 0 {
            e2e.push(window);
            unattributed.push(1000.0 - (covered.min(window) * 1000 / window) as f64);
        }
    }
    e2e.sort_unstable();
    out.push("stage.e2e_publish.p50_us", "us", us(percentile(&e2e, 0.5)));
    out.push("stage.e2e_publish.p99_us", "us", us(percentile(&e2e, 0.99)));
    out.push(
        "stage.unattributed_permille",
        "permille",
        median(&unattributed),
    );
    out.notes.push(format!(
        "  door probe: {} reports per pass; {} complete causal chains of {} traces, {} span(s) overwritten",
        probe.len(),
        e2e.len(),
        by_trace.len(),
        dropped,
    ));
    Ok(())
}

/// In-memory span recording for the staged replay.
struct Recorder {
    spans: Vec<SpanRec>,
    clock: Instant,
}

impl Recorder {
    fn now(&self) -> u64 {
        nanos(self.clock.elapsed())
    }

    fn open(&mut self, report: u64, parent: u32, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(SpanRec {
            report,
            id,
            parent,
            name,
            start,
            end: start,
        });
        id
    }

    fn close(&mut self, id: u32) {
        let end = self.now();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end = end;
        }
    }

    /// A child whose duration was measured elsewhere (a timer inside the
    /// call, or on another thread), laid at the start of its parent.
    fn nested(&mut self, report: u64, parent: u32, name: &'static str, duration: u64) {
        let id = self.spans.len() as u32;
        let (start, limit) = self
            .spans
            .get(parent as usize)
            .map_or((0, 0), |p| (p.start, p.end));
        self.spans.push(SpanRec {
            report,
            id,
            parent,
            name,
            start,
            end: (start + duration).min(limit.max(start)),
        });
    }
}

/// Replays the workload's own path, one call per span, on one thread.
fn staged_replay(
    w: &spec::Workload,
    inputs: &Inputs,
    probe: &[StampedUpdate],
    state_root: &Path,
) -> Res<Vec<SpanRec>> {
    let mut rec = Recorder {
        spans: Vec::with_capacity(probe.len() * 10),
        clock: Instant::now(),
    };
    match w.sut {
        Sut::Door { durable } => {
            // fdatasync per report: keep the durable replay short.
            let probe = if durable {
                &probe[..(probe.len() / 10).max(1)]
            } else {
                probe
            };
            let timed = TimedStore::new(sut::mem_store(inputs), false);
            let mut server = MemEngine::build(inputs, timed.clone())?.into_server();
            let mut stages = DoorStages::new(inputs)?;
            let dir = durable.then(|| StateDir::create(state_root)).transpose()?;
            let mut journal = match &dir {
                Some(dir) => Some(Journal::open(dir.path(), &server.checkpoint())?),
                None => None,
            };
            for (i, &report) in probe.iter().enumerate() {
                let (n, seq) = (i as u64, i as u64 + 1);
                let root = rec.open(n, ROOT, "report");
                let s = rec.open(n, root, "net.wire.encode");
                stages.encode(seq, &report)?;
                rec.close(s);
                let s = rec.open(n, root, "net.wire.decode");
                stages.decode()?;
                rec.close(s);
                let s = rec.open(n, root, "net.session");
                stages.session_admit(seq);
                rec.close(s);
                let s = rec.open(n, root, "net.admission");
                stages.admission(seq, report)?;
                rec.close(s);
                let s = rec.open(n, root, "net.session");
                stages.session_ack(seq);
                rec.close(s);
                let s = rec.open(n, root, "ingest.gate");
                let update = stages.gate(report)?;
                rec.close(s);
                if let Some(journal) = journal.as_mut() {
                    let s = rec.open(n, root, "durable.wal_append");
                    journal.append(report)?;
                    rec.close(s);
                }
                let read_before = timed.nanos();
                let s = rec.open(n, root, "server.ingest");
                server.ingest(update)?;
                rec.close(s);
                rec.nested(n, s, "storage.read", timed.nanos() - read_before);
                if let Some(journal) = journal.as_mut() {
                    if seq % spec::CHECKPOINT_EVERY == 0 {
                        let s = rec.open(n, root, "durable.checkpoint");
                        journal.checkpoint(&server.checkpoint())?;
                        rec.close(s);
                    }
                }
                rec.close(root);
            }
        }
        Sut::EngineMem => {
            let timed = TimedStore::new(sut::mem_store(inputs), false);
            let mut engine = MemEngine::build(inputs, timed.clone())?;
            for (i, report) in probe.iter().enumerate() {
                let n = i as u64;
                let root = rec.open(n, ROOT, "report");
                let read_before = timed.nanos();
                let s = rec.open(n, root, "opt.handle_update");
                engine.apply(report.update)?;
                rec.close(s);
                rec.nested(n, s, "storage.read", timed.nanos() - read_before);
                rec.close(root);
            }
        }
        Sut::EngineDisk => {
            let stack = sut::disk_store(inputs, true);
            let Some(above) = stack.above.clone() else {
                return Err("timed disk stack came without timers".into());
            };
            let mut engine = DiskEngine::build(inputs, stack.top.clone())?;
            for (i, batch) in probe.chunks(spec::BATCH).enumerate() {
                let n = i as u64;
                let updates = batch.iter().map(|r| r.update).collect();
                let root = rec.open(n, ROOT, "report");
                let read_before = above.nanos();
                let s = rec.open(n, root, "parallel.handle_batch");
                let cost = engine.apply_batch(updates)?;
                rec.close(s);
                // The slowest shard's maintain + access is the batch's
                // critical path; what is left of the call is coordination.
                // Cell reads happen on the shard threads: the share of a
                // shard's time that is storage is taken from the timer
                // above the cache, averaged over the shards.
                let critical = cost.maintain_nanos + cost.access_nanos;
                rec.nested(n, s, "opt.shard_phase", critical);
                let shard_phase = rec.spans.len() as u32 - 1;
                let reads = (above.nanos() - read_before) / u64::from(spec::SHARDS);
                rec.nested(n, shard_phase, "storage.read", reads);
                rec.close(root);
            }
        }
    }
    Ok(rec.spans)
}

/// Which layer group a replay span's self time is charged to.
fn group_of(name: &str) -> Option<&'static str> {
    match name.split('.').next()? {
        "net" => Some("net"),
        "ingest" | "server" | "opt" => Some("engine"),
        "storage" => Some("storage"),
        "durable" => Some("durable"),
        "parallel" => Some("parallel"),
        _ => None, // the root span: the replay harness itself
    }
}

/// Holds the replay's self times against the untraced time per report.
fn account(out: &mut RunResult, spans: &[SpanRec], reports: usize, untraced_rps: f64) {
    let selfs = stats::self_times(spans);
    let mut by_group: HashMap<&'static str, u64> = HashMap::new();
    let mut by_name: HashMap<&'static str, u64> = HashMap::new();
    for (span, &self_time) in spans.iter().zip(&selfs) {
        if let Some(group) = group_of(span.name) {
            *by_group.entry(group).or_default() += self_time;
            *by_name.entry(span.name).or_default() += self_time;
        }
    }
    let accounted: u64 = by_group.values().sum();
    let per_report = accounted as f64 / reports.max(1) as f64;
    let budget = 1e9 / untraced_rps.max(1e-9);
    out.push("layers.accounted_share", "ratio", per_report / budget);
    out.push(
        "layers.unattributed_share",
        "ratio",
        1.0 - per_report / budget,
    );
    for group in ["net", "engine", "storage", "durable", "parallel"] {
        out.push(
            format!("layers.{group}_share"),
            "ratio",
            ratio(
                by_group.get(group).copied().unwrap_or(0) as f64,
                accounted as f64,
            ),
        );
    }
    let mut names: Vec<_> = by_name.into_iter().collect();
    names.sort_by_key(|&(_, t)| std::cmp::Reverse(t));
    out.notes.push(format!(
        "  replay: {reports} report(s), {:.0} ns of layer self time each against {:.0} ns per report untraced",
        per_report, budget
    ));
    for (name, total) in names {
        out.notes.push(format!(
            "    {name:<24} {:>10.0} ns/report self",
            total as f64 / reports.max(1) as f64
        ));
    }
}

/// The traced run of one workload.
pub fn run_layers(args: &RunArgs, spans_out: Option<&Path>) -> Res<RunResult> {
    let w = args.workload;
    let plan = Plan::new(args.seconds, &args.scale)?;
    let inputs = sut::generate(w, args.seed, w.stream / plan.rate_div as usize);
    let probe = &inputs.stream[..plan.probe_reports.min(inputs.stream.len())];
    let mut out = RunResult::default();
    out.notes.push(format!(
        "{}: traced run, seed {}, {} probe reports",
        w.name,
        args.seed,
        probe.len()
    ));

    flat_loops(&mut out, &inputs, probe)?;
    let bare_ingest_ns = engine_probe(&mut out, &inputs, probe)?;
    supervisor_probe(&mut out, &inputs, probe, bare_ingest_ns)?;
    parallel_probe(&mut out, &inputs, probe)?;
    let durable_spans = durable_probe(&mut out, &inputs, probe, &args.state_root)?;
    door_probe(&mut out, &inputs, probe, &durable_spans)?;

    // The workload's real system, untraced and short: the time per report
    // the replay is held against, and the ladder for the generator's own
    // lateness and the highest rate the system keeps up with.
    let short = plan.traced(args.seconds);
    let mut built = build(w, &inputs, &args.state_root)?;
    let phases = run_phases(built.target(), w, &short, inputs.stream.len())?;
    let verdict = finish_and_check(built, &inputs, &phases)?;
    let untraced_rps = phases.closed.completed as f64 / phases.closed.wall.as_secs_f64().max(1e-9);
    out.attempted = phases.offered as u64;
    out.failed = verdict.failed;
    let late = phases.steps.iter().map(|s| s.late_p99).max().unwrap_or(0);
    out.push("gen.late_p99_us", "us", us(late));
    let r2 = phases.steps.get(1);
    out.push("ladder.r2_p50_us", "us", r2.map_or(0.0, |s| us(s.p50)));
    out.push(
        "ladder.r2_p99_us",
        "us",
        r2.map_or(0.0, |s| s.p99_windowed / 1e3),
    );
    out.push(
        "ladder.max_rate_ok_hz",
        "1/s",
        phases
            .steps
            .iter()
            .filter(|s| s.rate_ok())
            .map(|s| s.rate_hz)
            .max()
            .unwrap_or(0) as f64,
    );

    let spans = staged_replay(w, &inputs, probe, &args.state_root)?;
    let replayed = spans.iter().filter(|s| s.parent == ROOT).count();
    // `engine-disk` replays batches; its reports are the updates in them.
    let reports = match w.sut {
        Sut::EngineDisk => probe.len(),
        _ => replayed,
    };
    account(&mut out, &spans, reports, untraced_rps);
    if let Some(path) = spans_out {
        std::fs::write(path, stats::spans_jsonl(&spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.notes.push(format!(
            "  {} span(s) written to {}",
            spans.len(),
            path.display()
        ));
    }
    out.correct = verdict.problems.is_empty();
    out.notes
        .extend(verdict.problems.iter().map(|p| format!("  FAILED: {p}")));

    // Print in the contract's order, and exactly the contract's rows.
    let mut measured = std::mem::take(&mut out.metrics);
    for (name, unit) in spec::per_layer() {
        let Some(at) = measured.iter().position(|m| m.name == name) else {
            return Err(format!("the traced run did not measure {name}"));
        };
        let metric = measured.swap_remove(at);
        debug_assert_eq!(metric.unit, unit, "{name}");
        out.metrics.push(metric);
    }
    if let Some(extra) = measured.first() {
        return Err(format!(
            "{} is measured but not in the contract",
            extra.name
        ));
    }
    Ok(out)
}
