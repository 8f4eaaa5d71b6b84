//! Causal span layer: 64-bit trace ids threaded end-to-end through the
//! report pipeline, with lock-free bounded per-thread span rings merged
//! on snapshot.
//!
//! Design constraints (same as the rest of `ctup-obs`):
//!
//! - **Zero dependencies.** Ids are minted with a splitmix-style mixer,
//!   spans are dumped as hand-rolled JSONL and parsed back with a tiny
//!   scanner — no tracing crates.
//! - **Deterministic span ids.** A span id is a pure function of
//!   `(trace, stage, k)`, so the wire protocol only ever carries the
//!   trace id: every process that observes the same trace derives the
//!   same span ids, and a replayed/deduplicated report maps onto the
//!   *same* spans instead of forking the tree.
//! - **Bounded, wait-free recording.** [`SpanSink`] is a fixed set of
//!   seqlock rings; a writer claims a slot with one `fetch_add` and two
//!   version flips. Overwrites are counted, never blocked on.
//!
//! Timestamps are nanoseconds since a process-wide monotonic anchor
//! ([`now_nanos`]). Spans recorded by different processes therefore do
//! not share a timeline; end-to-end analysis (`ctup trace`,
//! `cargo xtask spancheck`) is meant to run on dumps from a
//! single-process loopback run (`ctup serve --updates N --span-dump`).

use crate::json::ObjectWriter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of independent rings in a [`SpanSink`]. Threads are assigned
/// rings round-robin; with at most this many recording threads every
/// ring has a single writer.
const RINGS: usize = 32;

/// Process-wide monotonic clock anchor shared by every [`SpanSink`].
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide monotonic anchor. The first call
/// in a process pins the anchor; all later calls (from any thread) are
/// measured against it, so span stamps from different threads are
/// directly comparable.
pub fn now_nanos() -> u64 {
    u64::try_from(anchor().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// splitmix64 finalizer: a cheap, well-distributed 64-bit mixer.
pub fn mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mints the trace id for report `seq` under session seed `seed`.
/// Never returns 0 (0 means "untraced" everywhere).
pub fn mint_trace(seed: u64, seq: u64) -> u64 {
    let t = mix64(seed ^ mix64(seq));
    if t == 0 {
        1
    } else {
        t
    }
}

/// Head-based 1-in-`every` sampling: returns a fresh trace id when
/// report `seq` is sampled, 0 otherwise. `every == 0` disables
/// sampling; `every == 1` traces everything. The decision is a pure
/// function of `seq`, so a replayed report makes the same choice.
pub fn sample_trace(seed: u64, seq: u64, every: u64) -> u64 {
    if every == 0 {
        return 0;
    }
    if every == 1 || seq.is_multiple_of(every) {
        mint_trace(seed, seq)
    } else {
        0
    }
}

/// Pipeline stage a span measures. Labels are the canonical wire/dump
/// names; `ctup trace` and spancheck key on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Client-side: frame pushed onto the socket and flushed.
    ClientSend,
    /// Server session layer: decode, classify, dedup.
    SessionAdmit,
    /// Time spent queued in the admission queue before the pump took it.
    QueueWait,
    /// Engine hand-off through gate admit and journal append.
    EngineApply,
    /// One shard's illumination/maintenance work (aux = shard index).
    ShardPhase,
    /// Cross-shard merge of per-shard results.
    Merge,
    /// Top-k snapshot publication to subscribers.
    SnapshotPublish,
    /// Durable WAL append (and replication ship) for this report.
    WalAppend,
    /// Periodic durable checkpoint riding on this report's apply.
    Checkpoint,
    /// Report shed at the door or drain (always sampled).
    Shed,
    /// Standby folding this report from a replicated WAL frame into its
    /// durable image (gate and fold).
    StandbyApply,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 11] = [
        Stage::ClientSend,
        Stage::SessionAdmit,
        Stage::QueueWait,
        Stage::EngineApply,
        Stage::ShardPhase,
        Stage::Merge,
        Stage::SnapshotPublish,
        Stage::WalAppend,
        Stage::Checkpoint,
        Stage::Shed,
        Stage::StandbyApply,
    ];

    /// The canonical causal chain a fully-traced report produces, in
    /// order. `ctup trace` and the CI tracing job assert these appear
    /// contiguously for at least one trace.
    pub const CANONICAL_CHAIN: [Stage; 7] = [
        Stage::ClientSend,
        Stage::SessionAdmit,
        Stage::QueueWait,
        Stage::EngineApply,
        Stage::ShardPhase,
        Stage::Merge,
        Stage::SnapshotPublish,
    ];

    /// Stable label used in span dumps and reports.
    pub fn label(self) -> &'static str {
        match self {
            Stage::ClientSend => "client-send",
            Stage::SessionAdmit => "session-admit",
            Stage::QueueWait => "queue-wait",
            Stage::EngineApply => "engine-apply",
            Stage::ShardPhase => "shard-phase",
            Stage::Merge => "merge",
            Stage::SnapshotPublish => "snapshot-publish",
            Stage::WalAppend => "wal-append",
            Stage::Checkpoint => "checkpoint",
            Stage::Shed => "shed",
            Stage::StandbyApply => "standby-apply",
        }
    }

    /// Inverse of [`Stage::label`].
    pub fn from_label(s: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|st| st.label() == s)
    }

    /// Stable numeric code folded into span ids.
    fn code(self) -> u64 {
        match self {
            Stage::ClientSend => 1,
            Stage::SessionAdmit => 2,
            Stage::QueueWait => 3,
            Stage::EngineApply => 4,
            Stage::ShardPhase => 5,
            Stage::Merge => 6,
            Stage::SnapshotPublish => 7,
            Stage::WalAppend => 8,
            Stage::Checkpoint => 9,
            Stage::Shed => 10,
            Stage::StandbyApply => 11,
        }
    }

    /// The parent stage in the canonical causal chain, if any.
    /// `ClientSend` is the root. A stage recorded for a trace whose
    /// parent stage was never observed locally (e.g. a v1 client that
    /// cannot send `client-send`) should record parent 0 instead — see
    /// [`parent_span_id`].
    pub fn parent_stage(self) -> Option<Stage> {
        match self {
            Stage::ClientSend => None,
            Stage::SessionAdmit => Some(Stage::ClientSend),
            Stage::QueueWait => Some(Stage::SessionAdmit),
            Stage::EngineApply => Some(Stage::QueueWait),
            Stage::ShardPhase | Stage::Merge | Stage::WalAppend | Stage::Checkpoint => {
                Some(Stage::EngineApply)
            }
            Stage::SnapshotPublish => Some(Stage::Merge),
            Stage::Shed => Some(Stage::SessionAdmit),
            Stage::StandbyApply => Some(Stage::WalAppend),
        }
    }
}

/// Deterministic span id for `(trace, stage, k)`. `k` disambiguates
/// fan-out within one stage (shard index for `ShardPhase`, 0
/// otherwise). Never returns 0 for a nonzero trace.
pub fn span_id(trace: u64, stage: Stage, k: u32) -> u64 {
    let s = mix64(trace ^ mix64((stage.code() << 32) | u64::from(k)));
    if s == 0 {
        1
    } else {
        s
    }
}

/// The canonical parent span id for `stage` within `trace` (parent
/// instances always use `k = 0`). Returns 0 for the root stage.
pub fn parent_span_id(trace: u64, stage: Stage) -> u64 {
    match stage.parent_stage() {
        Some(p) => span_id(trace, p, 0),
        None => 0,
    }
}

/// One recorded span: a closed `[start, end]` interval of one stage of
/// one trace. Timestamps are [`now_nanos`] stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to (never 0 for a recorded span).
    pub trace: u64,
    /// This span's id (deterministic; see [`span_id`]).
    pub span: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Pipeline stage measured.
    pub stage: Stage,
    /// Start stamp, nanos since the process anchor.
    pub start: u64,
    /// End stamp, nanos since the process anchor.
    pub end: u64,
    /// Stage-specific disambiguator (shard index for `ShardPhase`).
    pub aux: u32,
}

impl Span {
    /// Builds the canonical span for `(trace, stage, k)` with the
    /// canonical parent. `rooted` false forces parent 0 (used when the
    /// parent stage is known not to exist, e.g. server-minted traces
    /// that have no `client-send`).
    pub fn stage_span(
        trace: u64,
        stage: Stage,
        k: u32,
        start: u64,
        end: u64,
        rooted: bool,
    ) -> Span {
        Span {
            trace,
            span: span_id(trace, stage, k),
            parent: if rooted {
                parent_span_id(trace, stage)
            } else {
                0
            },
            stage,
            start,
            end,
            aux: k,
        }
    }

    /// Span duration in nanos (0 if the stamps are inverted).
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Renders the span as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut w = ObjectWriter::new();
        w.field_u64("trace", self.trace)
            .field_u64("span", self.span)
            .field_u64("parent", self.parent)
            .field_str("stage", self.stage.label())
            .field_u64("start", self.start)
            .field_u64("end", self.end)
            .field_u64("aux", u64::from(self.aux));
        w.finish()
    }

    /// Parses one JSONL line produced by [`Span::to_jsonl`]. Tolerates
    /// key reordering and unknown extra keys; rejects missing keys,
    /// unknown stages and malformed numbers.
    pub fn parse_jsonl(line: &str) -> Result<Span, String> {
        let fields = parse_flat_line(line)?;
        let num = |key: &str| -> Result<u64, String> {
            for (k, v) in &fields {
                if k == key {
                    return v
                        .parse::<u64>()
                        .map_err(|_| format!("span line: bad number for {key:?}: {v:?}"));
                }
            }
            Err(format!("span line: missing key {key:?}"))
        };
        let stage_label = fields
            .iter()
            .find(|(k, _)| k == "stage")
            .map(|(_, v)| v.clone())
            .ok_or_else(|| "span line: missing key \"stage\"".to_string())?;
        let stage = Stage::from_label(&stage_label)
            .ok_or_else(|| format!("span line: unknown stage {stage_label:?}"))?;
        let aux64 = num("aux")?;
        Ok(Span {
            trace: num("trace")?,
            span: num("span")?,
            parent: num("parent")?,
            stage,
            start: num("start")?,
            end: num("end")?,
            aux: u32::try_from(aux64)
                .map_err(|_| format!("span line: aux out of range: {aux64}"))?,
        })
    }
}

/// Minimal flat-JSON-object scanner for span lines: returns `(key,
/// value)` pairs where string values are unquoted (no escape handling
/// beyond `\"` — span lines only ever contain stage labels) and other
/// values are raw token text.
fn parse_flat_line(line: &str) -> Result<Vec<(String, String)>, String> {
    let s = line.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(|| format!("span line: not an object: {s:?}"))?;
    let mut out = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let after_quote = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("span line: expected key at {rest:?}"))?;
        let key_end = after_quote
            .find('"')
            .ok_or_else(|| "span line: unterminated key".to_string())?;
        let key = after_quote[..key_end].to_string();
        let after_key = after_quote[key_end + 1..].trim_start();
        let after_colon = after_key
            .strip_prefix(':')
            .ok_or_else(|| format!("span line: expected ':' after {key:?}"))?
            .trim_start();
        let (value, tail) = if let Some(vs) = after_colon.strip_prefix('"') {
            let vend = vs
                .find('"')
                .ok_or_else(|| "span line: unterminated string value".to_string())?;
            (vs[..vend].to_string(), vs[vend + 1..].trim_start())
        } else {
            let vend = after_colon.find(',').unwrap_or(after_colon.len());
            (
                after_colon[..vend].trim().to_string(),
                after_colon[vend..].trim_start(),
            )
        };
        out.push((key, value));
        rest = match tail.strip_prefix(',') {
            Some(t) => t.trim_start(),
            None if tail.is_empty() => tail,
            None => return Err(format!("span line: expected ',' at {tail:?}")),
        };
    }
    Ok(out)
}

/// Span/trace counters exposed by a sink snapshot. Field names are the
/// exposition names; lint rule L004 checks each appears in every report
/// renderer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCounters {
    /// Spans overwritten in a ring before a snapshot could read them.
    pub spans_dropped: u64,
    /// Trace ids minted (head-sampled or forced) by this process.
    pub traces_sampled: u64,
    /// Exemplar trace ids currently attached to histogram buckets.
    pub exemplars: u64,
}

/// Merged view of every ring of a [`SpanSink`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// All readable spans, sorted by start stamp.
    pub spans: Vec<Span>,
    /// Spans overwritten before this snapshot could read them.
    pub spans_dropped: u64,
    /// Total spans ever recorded into the sink.
    pub spans_recorded: u64,
    /// Trace ids minted via [`SpanSink::note_trace_sampled`].
    pub traces_sampled: u64,
}

const SLOT_EMPTY: u64 = 0;

/// One seqlock slot. `version` is even when stable, odd mid-write;
/// `SLOT_EMPTY` (0) means never written.
#[derive(Debug)]
struct Slot {
    version: AtomicU64,
    trace: AtomicU64,
    span: AtomicU64,
    parent: AtomicU64,
    /// `stage code << 32 | aux`.
    stage_aux: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            version: AtomicU64::new(SLOT_EMPTY),
            trace: AtomicU64::new(0),
            span: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            stage_aux: AtomicU64::new(0),
            start: AtomicU64::new(0),
            end: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct Ring {
    head: AtomicU64,
    slots: Vec<Slot>,
}

/// Lock-free bounded span store: `RINGS` (32) seqlock rings, each with
/// `capacity / RINGS` slots (at least 1). Threads record into a
/// thread-assigned ring with one `fetch_add` plus two version flips;
/// when a ring wraps, the oldest spans are overwritten and counted in
/// `spans_dropped`. Readers ([`SpanSink::snapshot`]) never block
/// writers: torn slots are retried a few times, then skipped.
///
/// With more than `RINGS` recording threads two threads can share a
/// ring; the seqlock version check still protects readers from torn
/// reads, and a doubly-claimed slot (only possible when the ring is
/// already wrapping, i.e. already dropping) at worst loses one span.
#[derive(Debug)]
pub struct SpanSink {
    rings: Vec<Ring>,
    next_ring: AtomicU64,
    recorded: AtomicU64,
    sampled: AtomicU64,
}

thread_local! {
    /// Cached ring index for this thread (assigned on first record).
    static MY_RING: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

impl SpanSink {
    /// A sink holding roughly `capacity` spans across all rings.
    pub fn new(capacity: usize) -> SpanSink {
        let per_ring = (capacity / RINGS).max(1);
        let rings = (0..RINGS)
            .map(|_| Ring {
                head: AtomicU64::new(0),
                slots: (0..per_ring).map(|_| Slot::new()).collect(),
            })
            .collect();
        SpanSink {
            rings,
            next_ring: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
        }
    }

    /// Total span capacity across rings.
    pub fn capacity(&self) -> usize {
        self.rings.iter().map(|r| r.slots.len()).sum()
    }

    fn ring_for_thread(&self) -> usize {
        MY_RING.with(|cell| match cell.get() {
            Some(i) => i,
            None => {
                let i =
                    usize::try_from(self.next_ring.fetch_add(1, Ordering::AcqRel) % (RINGS as u64))
                        .unwrap_or(0);
                cell.set(Some(i));
                i
            }
        })
    }

    /// Records one span. Wait-free for the writer; ignores spans with
    /// trace 0 (untraced).
    pub fn record(&self, s: Span) {
        if s.trace == 0 {
            return;
        }
        let ring = match self.rings.get(self.ring_for_thread()) {
            Some(r) => r,
            None => return,
        };
        let cap = ring.slots.len() as u64;
        let idx = ring.head.fetch_add(1, Ordering::AcqRel) % cap;
        let slot = match ring.slots.get(usize::try_from(idx).unwrap_or(0)) {
            Some(s) => s,
            None => return,
        };
        let v0 = slot.version.load(Ordering::Acquire);
        // Mark odd (in-progress), publish fields, then bump to the next
        // even version so readers can detect a torn read.
        slot.version.store(v0 | 1, Ordering::Release);
        slot.trace.store(s.trace, Ordering::Release);
        slot.span.store(s.span, Ordering::Release);
        slot.parent.store(s.parent, Ordering::Release);
        slot.stage_aux
            .store((s.stage.code() << 32) | u64::from(s.aux), Ordering::Release);
        slot.start.store(s.start, Ordering::Release);
        slot.end.store(s.end, Ordering::Release);
        slot.version
            .store((v0 | 1).wrapping_add(1), Ordering::Release);
        self.recorded.fetch_add(1, Ordering::AcqRel);
    }

    /// Convenience: build the canonical span for `(trace, stage, k)`
    /// and record it. See [`Span::stage_span`].
    pub fn record_stage(
        &self,
        trace: u64,
        stage: Stage,
        k: u32,
        start: u64,
        end: u64,
        rooted: bool,
    ) {
        self.record(Span::stage_span(trace, stage, k, start, end, rooted));
    }

    /// Notes that this process minted (sampled) a trace id.
    pub fn note_trace_sampled(&self) {
        self.sampled.fetch_add(1, Ordering::AcqRel);
    }

    /// Spans overwritten before any snapshot could read them, without
    /// copying the rings (cheap enough for a watchdog tick).
    pub fn dropped(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| {
                let cap = r.slots.len() as u64;
                r.head.load(Ordering::Acquire).saturating_sub(cap)
            })
            .sum()
    }

    /// Trace ids minted via [`SpanSink::note_trace_sampled`].
    pub fn sampled(&self) -> u64 {
        self.sampled.load(Ordering::Acquire)
    }

    /// Merges every ring into a sorted snapshot. Never blocks writers.
    pub fn snapshot(&self) -> SpanSnapshot {
        let mut spans = Vec::new();
        let mut dropped = 0u64;
        for ring in &self.rings {
            let cap = ring.slots.len() as u64;
            let head = ring.head.load(Ordering::Acquire);
            dropped += head.saturating_sub(cap);
            for slot in &ring.slots {
                if let Some(span) = read_slot(slot) {
                    spans.push(span);
                }
            }
        }
        spans.sort_by_key(|s| (s.start, s.span));
        SpanSnapshot {
            spans,
            spans_dropped: dropped,
            spans_recorded: self.recorded.load(Ordering::Acquire),
            traces_sampled: self.sampled.load(Ordering::Acquire),
        }
    }

    /// Renders the current snapshot as JSONL (one span per line).
    pub fn dump_jsonl(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        for s in &snap.spans {
            out.push_str(&s.to_jsonl());
            out.push('\n');
        }
        out
    }
}

/// Seqlock read of one slot: retry on odd/changed version, give up
/// (skip the slot) after a few attempts rather than block.
fn read_slot(slot: &Slot) -> Option<Span> {
    for _ in 0..4 {
        let v1 = slot.version.load(Ordering::Acquire);
        if v1 == SLOT_EMPTY || v1 & 1 == 1 {
            if v1 == SLOT_EMPTY {
                return None;
            }
            std::hint::spin_loop();
            continue;
        }
        let trace = slot.trace.load(Ordering::Acquire);
        let span = slot.span.load(Ordering::Acquire);
        let parent = slot.parent.load(Ordering::Acquire);
        let stage_aux = slot.stage_aux.load(Ordering::Acquire);
        let start = slot.start.load(Ordering::Acquire);
        let end = slot.end.load(Ordering::Acquire);
        let v2 = slot.version.load(Ordering::Acquire);
        if v1 != v2 {
            std::hint::spin_loop();
            continue;
        }
        let stage = stage_from_code(stage_aux >> 32)?;
        let aux = u32::try_from(stage_aux & 0xffff_ffff).unwrap_or(0);
        return Some(Span {
            trace,
            span,
            parent,
            stage,
            start,
            end,
            aux,
        });
    }
    None
}

fn stage_from_code(code: u64) -> Option<Stage> {
    Stage::ALL.iter().copied().find(|s| s.code() == code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn trace_ids_are_deterministic_and_nonzero() {
        let a = mint_trace(42, 7);
        let b = mint_trace(42, 7);
        assert_eq!(a, b);
        assert_ne!(a, 0);
        assert_ne!(mint_trace(42, 8), a);
        assert_ne!(mint_trace(43, 7), a);
    }

    #[test]
    fn sampling_is_one_in_n_and_replay_stable() {
        assert_eq!(sample_trace(1, 5, 0), 0);
        let hits: Vec<u64> = (0..100).map(|seq| sample_trace(9, seq, 10)).collect();
        assert_eq!(hits.iter().filter(|t| **t != 0).count(), 10);
        // Same seq, same decision and same id.
        assert_eq!(sample_trace(9, 40, 10), hits[40]);
        // every == 1 traces everything.
        assert!((0..20).all(|seq| sample_trace(3, seq, 1) != 0));
    }

    #[test]
    fn span_ids_are_deterministic_per_stage_and_k() {
        let t = mint_trace(1, 1);
        assert_eq!(
            span_id(t, Stage::EngineApply, 0),
            span_id(t, Stage::EngineApply, 0)
        );
        assert_ne!(
            span_id(t, Stage::EngineApply, 0),
            span_id(t, Stage::Merge, 0)
        );
        assert_ne!(
            span_id(t, Stage::ShardPhase, 0),
            span_id(t, Stage::ShardPhase, 1)
        );
        assert_ne!(span_id(t, Stage::EngineApply, 0), 0);
    }

    #[test]
    fn canonical_chain_parents_link_up() {
        let t = mint_trace(5, 5);
        for pair in Stage::CANONICAL_CHAIN.windows(2) {
            let (parent, child) = (pair[0], pair[1]);
            // Merge's parent is EngineApply, not ShardPhase — the chain
            // is contiguous in time, but fan-out stages share a parent.
            let expect = child.parent_stage().map(|p| span_id(t, p, 0)).unwrap_or(0);
            assert_eq!(parent_span_id(t, child), expect);
            let _ = parent;
        }
        assert_eq!(parent_span_id(t, Stage::ClientSend), 0);
        assert_eq!(
            parent_span_id(t, Stage::SnapshotPublish),
            span_id(t, Stage::Merge, 0)
        );
    }

    #[test]
    fn jsonl_roundtrip_preserves_every_field() {
        let s = Span::stage_span(mint_trace(2, 3), Stage::ShardPhase, 3, 100, 250, true);
        let line = s.to_jsonl();
        let back = Span::parse_jsonl(&line).expect("roundtrip");
        assert_eq!(back, s);
    }

    #[test]
    fn jsonl_parse_rejects_malformed_lines() {
        assert!(Span::parse_jsonl("not json").is_err());
        assert!(Span::parse_jsonl("{}").is_err());
        assert!(
            Span::parse_jsonl("{\"trace\":1,\"span\":2,\"parent\":0,\"stage\":\"nope\",\"start\":1,\"end\":2,\"aux\":0}")
                .is_err()
        );
    }

    #[test]
    fn sink_records_and_snapshots_sorted() {
        let sink = SpanSink::new(64);
        let t = mint_trace(1, 1);
        sink.record_stage(t, Stage::SessionAdmit, 0, 50, 60, true);
        sink.record_stage(t, Stage::ClientSend, 0, 10, 40, true);
        let snap = sink.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].stage, Stage::ClientSend);
        assert_eq!(snap.spans_recorded, 2);
        assert_eq!(snap.spans_dropped, 0);
    }

    #[test]
    fn untraced_spans_are_ignored() {
        let sink = SpanSink::new(64);
        sink.record_stage(0, Stage::EngineApply, 0, 1, 2, true);
        assert_eq!(sink.snapshot().spans.len(), 0);
        assert_eq!(sink.snapshot().spans_recorded, 0);
    }

    #[test]
    fn ring_overflow_counts_drops() {
        // One thread -> one ring of capacity max(64/32, 1) = 2.
        let sink = SpanSink::new(64);
        let t = mint_trace(1, 1);
        for i in 0..10u64 {
            sink.record_stage(t, Stage::EngineApply, 0, i, i + 1, true);
        }
        let snap = sink.snapshot();
        assert_eq!(snap.spans_recorded, 10);
        assert_eq!(snap.spans_dropped, 8);
        assert_eq!(snap.spans.len(), 2);
        // The survivors are the newest writes.
        assert!(snap.spans.iter().all(|s| s.start >= 8));
    }

    #[test]
    fn concurrent_writers_never_corrupt_readers() {
        let sink = Arc::new(SpanSink::new(1024));
        let mut handles = Vec::new();
        for w in 0..8u64 {
            let sink = Arc::clone(&sink);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let t = mint_trace(w, i);
                    sink.record_stage(t, Stage::EngineApply, 0, i, i + 1, true);
                }
            }));
        }
        for _ in 0..20 {
            for s in sink.snapshot().spans {
                // Every readable span must be internally consistent.
                assert_eq!(s.span, span_id(s.trace, s.stage, s.aux));
                assert_eq!(s.end, s.start + 1);
            }
        }
        for h in handles {
            h.join().expect("writer");
        }
        let snap = sink.snapshot();
        assert_eq!(snap.spans_recorded, 8 * 500);
        for s in snap.spans {
            assert_eq!(s.span, span_id(s.trace, s.stage, s.aux));
        }
    }

    #[test]
    fn dump_jsonl_parses_back() {
        let sink = SpanSink::new(64);
        let t = mint_trace(4, 4);
        sink.record_stage(t, Stage::ClientSend, 0, 1, 5, true);
        sink.record_stage(t, Stage::SessionAdmit, 0, 6, 9, true);
        let dump = sink.dump_jsonl();
        let parsed: Vec<Span> = dump
            .lines()
            .map(|l| Span::parse_jsonl(l).expect("parse"))
            .collect();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].stage, Stage::ClientSend);
    }

    #[test]
    fn now_nanos_is_monotonic() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }
}
