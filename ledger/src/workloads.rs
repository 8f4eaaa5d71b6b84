//! The run shape, identical for all four workloads: generate the stream
//! from the seed, build the system (five times and more, for `setup_s`),
//! warm up, closed phase, (traced run only: three-step open ladder,) shut
//! down, check the final top-k against the oracle and the exactly-once
//! accounting.
//!
//! [`run_end_to_end`] is the untraced run. It produces the end-to-end
//! metrics and nothing else; the per-layer table, the ladder included,
//! comes from [`crate::layers`].

use crate::drive::{closed_loop, open_loop, ClosedOutcome, OpenOutcome, Target};
use crate::procfs;
use crate::spec::{self, Plan, Sut, Workload};
use crate::stats::{median, percentile, samples_beyond, windowed_percentile};
use crate::sut::{
    self, DiskEngine, Door, DoorOptions, Inputs, MemEngine, Res, StampedUpdate, Supervised,
    TopKEntry, Truth,
};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a phase may drain before its unfinished reports count as
/// failed.
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Windows a ladder step is cut into for the latency metrics, as long as
/// each holds at least [`MIN_WINDOW`] samples.
const WINDOWS: usize = 40;
/// Fewest samples per window: a p99 needs at least one sample beyond it.
const MIN_WINDOW: usize = 100;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// `full` or `tiny`.
    pub scale: String,
    /// Where durable state directories are created (and removed).
    pub state_root: PathBuf,
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Oracle and accounting checks all passed.
    pub correct: bool,
    /// Reports offered, all phases.
    pub attempted: u64,
    /// Reports shed, rejected or unfinished.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable detail printed above the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records one metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// A metric's value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

// ---------------------------------------------------------------- targets

/// The socket path as a generator target.
pub(crate) struct DoorTarget<'a> {
    pub(crate) door: Door,
    pub(crate) stream: &'a [StampedUpdate],
}

impl Target for DoorTarget<'_> {
    fn submit(&mut self, idx: usize) -> Res<()> {
        self.door.enqueue(self.stream[idx]);
        Ok(())
    }
    fn poll(&mut self) -> Res<usize> {
        self.door.step().map(|n| n as usize)
    }
    fn closed_window(&self) -> usize {
        spec::DOOR_BACKLOG
    }
    fn runs_on_own_threads(&self) -> bool {
        true
    }
}

/// `OptCtup::handle_update` as a generator target: one update per poll,
/// so every completion gets its own time stamp.
pub(crate) struct MemTarget<'a> {
    engine: MemEngine,
    stream: &'a [StampedUpdate],
    pending: VecDeque<usize>,
    done: usize,
}

impl Target for MemTarget<'_> {
    fn submit(&mut self, idx: usize) -> Res<()> {
        self.pending.push_back(idx);
        Ok(())
    }
    fn poll(&mut self) -> Res<usize> {
        if let Some(idx) = self.pending.pop_front() {
            self.engine.apply(self.stream[idx].update)?;
            self.done += 1;
        }
        Ok(self.done)
    }
    fn closed_window(&self) -> usize {
        1
    }
    fn runs_on_own_threads(&self) -> bool {
        false
    }
}

/// `ShardedCtup::handle_batch` as a generator target: one batch per poll,
/// of whatever is pending up to 32 — full batches in the closed loop,
/// what has arrived in the open loop (a server batches what it has; it
/// does not wait for stragglers).
pub(crate) struct DiskTarget<'a> {
    engine: DiskEngine,
    stream: &'a [StampedUpdate],
    pending: VecDeque<usize>,
    done: usize,
}

impl Target for DiskTarget<'_> {
    fn submit(&mut self, idx: usize) -> Res<()> {
        self.pending.push_back(idx);
        Ok(())
    }
    fn poll(&mut self) -> Res<usize> {
        let take = self.pending.len().min(spec::BATCH);
        if take > 0 {
            let batch = self
                .pending
                .drain(..take)
                .map(|idx| self.stream[idx].update)
                .collect();
            self.engine.apply_batch(batch)?;
            self.done += take;
        }
        Ok(self.done)
    }
    fn closed_window(&self) -> usize {
        spec::BATCH
    }
    fn runs_on_own_threads(&self) -> bool {
        // The shard workers only run inside `handle_batch`, which the
        // generator's thread is blocked in; between batches they are idle.
        false
    }
}

/// A built system under test. One exists at a time and it is never moved
/// in a loop, so the variants' different sizes cost nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Built<'a> {
    Door(DoorTarget<'a>, Option<StateDir>),
    Mem(MemTarget<'a>),
    Disk(DiskTarget<'a>),
}

impl Built<'_> {
    pub(crate) fn target(&mut self) -> &mut dyn Target {
        match self {
            Built::Door(t, _) => t,
            Built::Mem(t) => t,
            Built::Disk(t) => t,
        }
    }
}

/// What the system says happened, after shutdown.
struct Finished {
    result: Vec<TopKEntry>,
    /// Reports the engine applied.
    applied: u64,
    /// Reports refused along the way (shed at the door, rejected by the
    /// gate).
    refused: u64,
    /// Exactly-once violations, in words.
    problems: Vec<String>,
    notes: Vec<String>,
}

/// A durable state directory, removed on drop.
#[derive(Debug)]
pub struct StateDir(PathBuf);

impl StateDir {
    /// A fresh, empty directory under `root`.
    pub fn create(root: &Path) -> Res<StateDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("ledger-state-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(StateDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub(crate) fn build<'a>(w: &Workload, inputs: &'a Inputs, state_root: &Path) -> Res<Built<'a>> {
    let stream = inputs.stream.as_slice();
    match w.sut {
        Sut::Door { durable } => {
            let dir = durable.then(|| StateDir::create(state_root)).transpose()?;
            let options = DoorOptions {
                state_dir: dir.as_ref().map(|d| d.path().to_path_buf()),
                ..DoorOptions::default()
            };
            let door = Door::open(sut::mem_store(inputs), &inputs.units, &options)?;
            Ok(Built::Door(DoorTarget { door, stream }, dir))
        }
        Sut::EngineMem => Ok(Built::Mem(MemTarget {
            engine: MemEngine::build(inputs, sut::mem_store(inputs))?,
            stream,
            pending: VecDeque::new(),
            done: 0,
        })),
        Sut::EngineDisk => Ok(Built::Disk(DiskTarget {
            engine: DiskEngine::build(inputs, sut::disk_store(inputs, false).top)?,
            stream,
            pending: VecDeque::new(),
            done: 0,
        })),
    }
}

fn finish(built: Built<'_>, offered: u64) -> Res<Finished> {
    match built {
        Built::Mem(t) => Ok(Finished {
            result: t.engine.result(),
            applied: t.engine.metrics().updates_processed,
            refused: 0,
            problems: Vec::new(),
            notes: Vec::new(),
        }),
        Built::Disk(t) => Ok(Finished {
            result: t.engine.result(),
            applied: t.engine.metrics().updates_processed,
            refused: 0,
            problems: Vec::new(),
            notes: vec![format!(
                "engine-disk: {} merge(s) skipped",
                t.engine.merge_skips()
            )],
        }),
        Built::Door(t, _dir) => {
            let report = t.door.close()?;
            let engine = report
                .engine
                .ok_or("door closed without an engine report")?;
            let r = &engine.metrics.resilience;
            let shed = report.client.shed_total();
            let rejected = r.rejected_total() + r.stale_dropped + r.duplicates_dropped;
            let mut problems = Vec::new();
            let mut expect = |what: &str, got: u64, want: u64| {
                if got != want {
                    problems.push(format!("{what}: {got}, expected {want}"));
                }
            };
            expect("client enqueued", report.client.enqueued, offered);
            expect("client acked + shed", report.client.acked + shed, offered);
            expect("door accepted", report.net.reports_accepted, offered - shed);
            expect("engine received", engine.reports_received, offered - shed);
            expect(
                "engine applied",
                engine.updates_processed,
                offered - shed - rejected,
            );
            expect("replays suppressed", report.net.replays_suppressed, 0);
            expect("reconnects", report.client.reconnects, 0);
            expect("door sheds", report.net.shed_total(), shed);
            if engine.gave_up || engine.killed {
                problems.push("the supervisor gave up or was killed".into());
            }
            Ok(Finished {
                result: engine.final_result,
                applied: engine.updates_processed,
                refused: shed + rejected,
                problems,
                notes: vec![format!(
                    "door: {} frames sent, {} accepted, {} checkpoint(s), ingest wait p50 {} ns",
                    report.client.frames_sent,
                    report.net.reports_accepted,
                    r.checkpoints_taken,
                    sut::ingest_wait_quantile(&report.net, 0.5),
                )],
            })
        }
    }
}

/// What the checks after shutdown found.
pub(crate) struct Verdict {
    /// Reports shed, rejected or never finished.
    pub(crate) failed: u64,
    /// Oracle and exactly-once violations, in words; empty when correct.
    pub(crate) problems: Vec<String>,
    pub(crate) notes: Vec<String>,
}

/// Shuts the system down, then holds its final top-k against the oracle
/// and its counters against what was offered.
pub(crate) fn finish_and_check(built: Built<'_>, inputs: &Inputs, phases: &Phases) -> Res<Verdict> {
    let offered = phases.offered as u64;
    let unfinished = phases.unfinished as u64;
    let finished = finish(built, offered)?;
    let failed = finished.refused + unfinished;
    let mut problems = finished.problems;
    if finished.applied + failed != offered {
        problems.push(format!(
            "exactly-once: {} applied + {} refused + {unfinished} unfinished != {offered} offered",
            finished.applied, finished.refused
        ));
    }
    if failed == 0 {
        let truth = Truth::new(
            &inputs.places,
            sut::final_positions(&inputs.units, &inputs.stream[..phases.offered]),
        );
        if let Err(e) = truth.check(&finished.result, &truth.expected()) {
            problems.push(e);
        }
    } else {
        problems.push(format!(
            "{failed} report(s) failed, so the applied prefix is unknown and the oracle cannot be consulted"
        ));
    }
    Ok(Verdict {
        failed,
        problems,
        notes: finished.notes,
    })
}

// ------------------------------------------------------------ the phases

/// One ladder step, summarised.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSummary {
    /// The fixed rate, reports/s.
    pub rate_hz: u64,
    /// Reports the schedule offered.
    pub offered: usize,
    /// Reports that never completed.
    pub unfinished: usize,
    /// Reports incomplete when the schedule ended.
    pub backlog_at_end: usize,
    /// How long those took to finish, nanoseconds.
    pub drain: u64,
    /// Median latency from due time, nanoseconds.
    pub p50: u64,
    /// 99th percentile over the whole step, nanoseconds.
    pub p99: u64,
    /// Samples beyond that percentile.
    pub beyond_p99: usize,
    /// Windows the step was cut into.
    pub windows: usize,
    /// Median over those windows of each window's p99, nanoseconds.
    pub p99_windowed: f64,
    /// 99th percentile of how late the generator submitted, nanoseconds.
    pub late_p99: u64,
}

impl StepSummary {
    fn of(rate_hz: u64, out: &OpenOutcome) -> StepSummary {
        let mut sorted = out.latencies.clone();
        sorted.sort_unstable();
        let mut late = out.lateness.clone();
        late.sort_unstable();
        let windows = WINDOWS.min(out.latencies.len() / MIN_WINDOW).max(1);
        StepSummary {
            rate_hz,
            offered: out.offered,
            unfinished: out.unfinished(),
            backlog_at_end: out.backlog_at_end,
            drain: u64::try_from(out.drain.as_nanos()).unwrap_or(u64::MAX),
            p50: percentile(&sorted, 0.5),
            p99: percentile(&sorted, 0.99),
            beyond_p99: samples_beyond(sorted.len(), 0.99),
            windows,
            p99_windowed: windowed_percentile(&out.latencies, windows, 0.99),
            late_p99: percentile(&late, 0.99),
        }
    }

    /// The generator kept its own schedule. Lateness is folded into every
    /// latency (both start at the due time), so an invalid step overstates
    /// latency, never hides it. In-process targets run the engine on the
    /// generator's thread, so there lateness is the engine's own service
    /// time and says nothing about the generator.
    pub fn valid(&self) -> bool {
        self.late_p99 <= spec::GEN_LATE_LIMIT_NANOS
    }

    /// The system kept up: nothing unfinished, whatever was in flight
    /// when the schedule ended finished within the latency limit (so no
    /// backlog had built up), and the tail stayed within it too.
    pub fn rate_ok(&self) -> bool {
        self.unfinished == 0
            && self.drain <= spec::RATE_OK_P99_NANOS
            && self.p99 <= spec::RATE_OK_P99_NANOS
    }

    fn line(&self) -> String {
        format!(
            "  ladder {:>6}/s: offered {:>7}  p50 {:>9.1} us  p99 {:>9.1} us ({} beyond; median of {} windows' p99 {:.1} us)  backlog {} (drained in {:.1} ms)  unfinished {}  gen late p99 {:.1} us{}",
            self.rate_hz,
            self.offered,
            self.p50 as f64 / 1e3,
            self.p99 as f64 / 1e3,
            self.beyond_p99,
            self.windows,
            self.p99_windowed / 1e3,
            self.backlog_at_end,
            self.drain as f64 / 1e6,
            self.unfinished,
            self.late_p99 as f64 / 1e3,
            if self.valid() { "" } else { "  (generator late: latencies are upper bounds)" },
        )
    }
}

/// The timed phases of one built system.
#[derive(Debug, Clone)]
pub struct Phases {
    /// Reports sent untimed before the closed phase.
    pub warmup: usize,
    /// The closed phase.
    pub closed: ClosedOutcome,
    /// Process CPU over the closed phase, milliseconds.
    pub closed_cpu_ms: f64,
    /// The three ladder steps.
    pub steps: Vec<StepSummary>,
    /// Reports offered over all phases.
    pub offered: usize,
    /// Reports never completed.
    pub unfinished: usize,
}

/// Warm-up, closed phase, ladder.
pub fn run_phases(
    target: &mut dyn Target,
    w: &Workload,
    plan: &Plan,
    stream_len: usize,
) -> Res<Phases> {
    let rates = w.rates.map(|r| (r / plan.rate_div).max(1));
    let step_counts = rates.map(|r| (r as f64 * plan.step_secs.unwrap_or(0.0)) as usize);
    let ladder_need: usize = step_counts.iter().sum();
    let warmup = plan.warmup.min(stream_len / 4);
    if warmup + ladder_need >= stream_len {
        return Err(format!(
            "stream of {stream_len} reports cannot hold warm-up and a {ladder_need}-report ladder"
        ));
    }
    let mut next = 0usize;
    let warm = closed_loop(
        target,
        next,
        warmup,
        Duration::from_secs(3600),
        DRAIN_DEADLINE,
    )?;
    next += warm.completed;

    let closed_cap = stream_len - ladder_need - next;
    let cpu_before = procfs::cpu_ms();
    let closed = closed_loop(
        target,
        next,
        closed_cap,
        Duration::from_secs_f64(plan.closed_secs),
        DRAIN_DEADLINE,
    )?;
    let closed_cpu_ms = procfs::cpu_ms() - cpu_before;
    next += closed.completed;

    let mut steps = Vec::new();
    let mut unfinished = 0usize;
    for (&rate, &count) in rates.iter().zip(&step_counts) {
        if count == 0 {
            break; // no open phase in this plan
        }
        let out = open_loop(target, next, count, rate, DRAIN_DEADLINE)?;
        next += count;
        unfinished += out.unfinished();
        steps.push(StepSummary::of(rate, &out));
        if out.unfinished() > 0 {
            // The schedule of the next step would queue behind this one's
            // backlog; the run has failed reports either way.
            break;
        }
    }
    Ok(Phases {
        warmup: warm.completed,
        closed,
        closed_cpu_ms,
        steps,
        offered: next,
        unfinished,
    })
}

/// `door-durable` only: kill the engine 200 journaled reports past a
/// checkpoint, then recover from copies of what it left on disk. Returns
/// the recovery times in milliseconds; each recovery must reproduce the
/// oracle's top-k for the journaled prefix.
pub fn recovery_cycles(inputs: &Inputs, state_root: &Path, cycles: usize) -> Res<Vec<f64>> {
    let kill_at = spec::CHECKPOINT_EVERY * 2 + spec::RECOVERY_TAIL - 1;
    let journaled = usize::try_from(kill_at).map_err(|e| e.to_string())? + 1;
    if inputs.stream.len() < journaled {
        return Err("stream too short for a recovery cycle".into());
    }
    let store = sut::mem_store(inputs);
    let primary = StateDir::create(state_root)?;
    let pipeline = Supervised::spawn(
        inputs,
        store.clone(),
        Some(primary.path()),
        Some(kill_at),
        None,
    )?;
    for &report in &inputs.stream[..journaled] {
        if !pipeline.send(report, 0) {
            break;
        }
    }
    let killed = pipeline.shutdown();
    if !killed.killed {
        return Err("the kill point did not fire".into());
    }
    let truth = Truth::new(
        &inputs.places,
        sut::final_positions(&inputs.units, &inputs.stream[..journaled]),
    );
    let expected = truth.expected();
    let mut times = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let copy = StateDir::create(state_root)?;
        copy_dir(primary.path(), copy.path())?;
        let start = Instant::now();
        let recovered = Supervised::recover(copy.path(), store.clone())?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
        let report = recovered.shutdown();
        truth
            .check(&report.final_result, &expected)
            .map_err(|e| format!("recovered engine: {e}"))?;
        if report.metrics.resilience.updates_replayed != spec::RECOVERY_TAIL {
            return Err(format!(
                "recovery replayed {} reports, expected the {}-report tail",
                report.metrics.resilience.updates_replayed,
                spec::RECOVERY_TAIL
            ));
        }
    }
    Ok(times)
}

fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    for entry in entries.flatten() {
        if entry.path().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("copying {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Build-and-drop at least `cycles` times, and on until a second has gone
/// into it (at most forty times as often): a build of a few milliseconds
/// needs far more than five samples for a steady median. Returns each build's
/// seconds.
fn setup_cycles(w: &Workload, inputs: &Inputs, state_root: &Path, cycles: usize) -> Res<Vec<f64>> {
    let mut times = Vec::with_capacity(cycles);
    let began = Instant::now();
    while times.len() < cycles
        || (times.len() < cycles * 40 && began.elapsed() < Duration::from_millis(1000))
    {
        let start = Instant::now();
        let built = build(w, inputs, state_root)?;
        times.push(start.elapsed().as_secs_f64());
        if let Built::Door(t, _dir) = built {
            t.door.close()?;
        }
    }
    Ok(times)
}

/// The untraced run: end-to-end metrics, oracle and accounting checks.
pub fn run_end_to_end(args: &RunArgs) -> Res<RunResult> {
    let w = args.workload;
    let plan = Plan::new(args.seconds, &args.scale)?;
    let inputs = sut::generate(w, args.seed, w.stream / plan.rate_div as usize);
    let (rss_base, peak_base) = (procfs::rss_mib(), procfs::peak_rss_mib());

    let setups = setup_cycles(w, &inputs, &args.state_root, plan.setup_cycles)?;
    let mut built = build(w, &inputs, &args.state_root)?;
    let phases = run_phases(built.target(), w, &plan, inputs.stream.len())?;
    let verdict = finish_and_check(built, &inputs, &phases)?;
    let mut out = RunResult {
        attempted: phases.offered as u64,
        failed: verdict.failed,
        ..RunResult::default()
    };
    let mut problems = verdict.problems;
    if let Sut::Door { durable: true } = w.sut {
        match recovery_cycles(&inputs, &args.state_root, spec::RECOVERY_CYCLES) {
            Ok(times) => out.notes.push(format!(
                "  recovery: {} cycle(s), median {:.3} ms",
                times.len(),
                median(&times)
            )),
            Err(e) => problems.push(e),
        }
    }
    let peak_rss = procfs::peak_rss_mib();
    if peak_rss <= peak_base {
        out.notes.push(format!(
            "  peak RSS never rose past input generation ({peak_base:.1} MiB): peak_rss_mib says nothing about the system on this run"
        ));
    }
    out.notes.push(format!(
        "  memory: {rss_base:.1} MiB resident after input generation, peak {peak_rss:.1} MiB"
    ));

    let completed = phases.closed.completed.max(1) as f64;
    out.push("setup_s", "s", median(&setups));
    out.push(
        "reports_per_s",
        "1/s",
        completed / phases.closed.wall.as_secs_f64().max(1e-9),
    );
    out.push(
        "cpu_ms_per_kreport",
        "ms",
        phases.closed_cpu_ms / completed * 1e3,
    );
    out.push("peak_rss_mib", "MiB", peak_rss);

    out.notes.insert(
        0,
        format!(
            "{}: seed {}, {} places, stream built in {:.3} s; {} warm-up, closed phase {} reports in {:.3} s",
            w.name,
            args.seed,
            inputs.places.len(),
            inputs.build_secs,
            phases.warmup,
            phases.closed.completed,
            phases.closed.wall.as_secs_f64(),
        ),
    );
    out.notes.extend(phases.steps.iter().map(StepSummary::line));
    out.notes
        .extend(verdict.notes.iter().map(|n| format!("  {n}")));
    out.correct = problems.is_empty();
    out.notes
        .extend(problems.iter().map(|p| format!("  FAILED: {p}")));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exactly-once gate: if the engine's own count of applied
    /// updates disagrees with what the generator offered, the run is
    /// wrong, whatever the top-k says.
    #[test]
    fn the_accounting_gate_fires_on_a_lost_report() {
        let w = &spec::WORKLOADS[2];
        let plan = Plan::new(0.5, "tiny").expect("tiny plan");
        let inputs = sut::generate(w, 4242, 20_000);
        let run = |lose: usize| {
            let mut built = build(w, &inputs, Path::new(".")).expect("engine-mem builds");
            let mut phases =
                run_phases(built.target(), w, &plan, inputs.stream.len()).expect("phases run");
            phases.offered += lose; // the generator believes it sent more
            finish_and_check(built, &inputs, &phases).expect("shutdown")
        };
        let honest = run(0);
        assert!(honest.problems.is_empty(), "{:?}", honest.problems);
        assert_eq!(honest.failed, 0);
        let lossy = run(1);
        assert!(
            lossy.problems.iter().any(|p| p.starts_with("exactly-once")),
            "{:?}",
            lossy.problems
        );
    }
}
