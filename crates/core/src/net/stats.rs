//! The front door's shed taxonomy and counters.
//!
//! Every report a client submits is either *accepted* (forwarded to the
//! engine exactly once), *suppressed as a replay* (the session already
//! handled that sequence number), or *shed* with a typed [`ShedReason`].
//! The counters here make that accounting auditable: for any run,
//!
//! ```text
//! reports_accepted + replays_suppressed + shed_total() == reports received
//! ```
//!
//! The counters are monotone (`fetch_add`) and the gauges (`queue_depth`,
//! `sessions_active`, `degraded_since_ms`, `epoch`, `degraded`) are
//! advisory snapshots, so `Relaxed` is sufficient — nothing reads a
//! counter to decide control flow, and no other memory is published
//! through them. (Recovery control flow keys off `Shared`'s dedicated
//! flags, not these counters; `epoch` here mirrors the fencing epoch for
//! exposition only — the authoritative copy rides in every replication
//! frame.) The shed-accounting identity above holds at quiescence
//! (after joins), which is when the differential suites check it.
//!
//! [`NetStats`] is the live, atomically updated form shared between the
//! accept loop, the connection handlers, the drain pump and the watchdog;
//! [`NetStatsSnapshot`] is the plain-value copy embedded in the unified
//! report [`Snapshot`](crate::report::Snapshot), where lint rule L004
//! guarantees every field below reaches all three exposition formats.

use ctup_obs::{AtomicHistogram, LogHistogram};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One exemplar: the trace id of a report whose ingest wait landed in a
/// given `net_ingest_wait_nanos` histogram bucket. The JSON report
/// attaches these to the histogram so an operator can jump from a slow
/// bucket straight to `ctup trace <trace>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitExemplar {
    /// Histogram bucket index ([`ctup_obs::hist::bucket_index`]) the
    /// wait fell into.
    pub bucket: u32,
    /// The recorded wait, in nanoseconds.
    pub wait_nanos: u64,
    /// Trace id of the report that recorded it (never 0).
    pub trace: u64,
}

/// Bounded store of ingest-wait exemplars: at most one per histogram
/// bucket (the slowest wait seen wins), so the worst buckets always keep
/// a representative trace id and the store cannot grow past the bucket
/// count of the histogram.
#[derive(Debug, Default)]
pub struct ExemplarStore {
    inner: Mutex<Vec<WaitExemplar>>,
}

impl ExemplarStore {
    fn lock(&self) -> MutexGuard<'_, Vec<WaitExemplar>> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Records a traced wait; keeps the slowest exemplar per bucket.
    /// Returns the number of exemplars currently stored.
    pub fn record(&self, wait_nanos: u64, trace: u64) -> u64 {
        let bucket = u32::try_from(ctup_obs::hist::bucket_index(wait_nanos)).unwrap_or(u32::MAX);
        let mut inner = self.lock();
        match inner.iter_mut().find(|e| e.bucket == bucket) {
            Some(existing) => {
                if wait_nanos >= existing.wait_nanos {
                    existing.wait_nanos = wait_nanos;
                    existing.trace = trace;
                }
            }
            None => inner.push(WaitExemplar {
                bucket,
                wait_nanos,
                trace,
            }),
        }
        ctup_spatial::convert::count64(inner.len())
    }

    /// The stored exemplars, slowest bucket first.
    pub fn snapshot(&self) -> Vec<WaitExemplar> {
        let mut out = self.lock().clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.bucket));
        out
    }
}

/// Why the front door refused to forward a report to the engine.
///
/// Sheds are *terminal*: the server counts the sequence number as handled
/// and the client must not retry it. This keeps overload from amplifying
/// itself — a shed report costs one frame each way and never comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The global admission queue was above its high watermark (and had
    /// not yet drained below the low watermark — shedding is hysteretic).
    QueueFull,
    /// The report waited in the admission queue longer than the ingest
    /// deadline; delivering it now would feed the engine stale positions.
    DeadlineExceeded,
    /// The submitting session exceeded its per-session quota of queued
    /// reports; one chatty client cannot monopolize the global queue.
    SessionQuota,
    /// The watchdog has tripped degraded mode (engine dead or drain
    /// stalled); ingest sheds while the last-good top-k keeps serving.
    EngineDegraded,
}

impl ShedReason {
    /// All reasons, in wire-code order.
    pub const ALL: [ShedReason; 4] = [
        ShedReason::QueueFull,
        ShedReason::DeadlineExceeded,
        ShedReason::SessionQuota,
        ShedReason::EngineDegraded,
    ];

    /// Stable label used in logs and client reports.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::DeadlineExceeded => "deadline-exceeded",
            ShedReason::SessionQuota => "session-quota",
            ShedReason::EngineDegraded => "engine-degraded",
        }
    }

    /// Wire encoding of the reason.
    pub fn code(self) -> u8 {
        match self {
            ShedReason::QueueFull => 0,
            ShedReason::DeadlineExceeded => 1,
            ShedReason::SessionQuota => 2,
            ShedReason::EngineDegraded => 3,
        }
    }

    /// Decodes a wire code; `None` for codes this version does not know.
    pub fn from_code(code: u8) -> Option<ShedReason> {
        match code {
            0 => Some(ShedReason::QueueFull),
            1 => Some(ShedReason::DeadlineExceeded),
            2 => Some(ShedReason::SessionQuota),
            3 => Some(ShedReason::EngineDegraded),
            _ => None,
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Live counters of the ingest front door, updated with relaxed atomics
/// from every server thread. Shared as an `Arc<NetStats>`.
#[derive(Debug, Default)]
pub struct NetStats {
    /// TCP connections the accept loop handed to a handler thread.
    pub connections_accepted: AtomicU64,
    /// TCP connections refused before a handler ran (connection cap).
    pub connections_rejected: AtomicU64,
    /// Sessions created by a `Hello` with no resumable predecessor.
    pub sessions_opened: AtomicU64,
    /// Sessions resumed by a `Hello` naming a known session id.
    pub sessions_resumed: AtomicU64,
    /// Connections evicted by the server (slow reads, slow writes,
    /// handshake timeouts, protocol errors).
    pub sessions_evicted: AtomicU64,
    /// Well-formed frames decoded across all connections.
    pub frames_received: AtomicU64,
    /// Frames rejected by the codec (bad version, unknown type, length
    /// violations); the connection is closed after the first one.
    pub frames_malformed: AtomicU64,
    /// Connections that died mid-frame (a disconnect tore a frame).
    pub partial_disconnects: AtomicU64,
    /// Reports drained from the admission queue into the engine.
    pub reports_accepted: AtomicU64,
    /// Reports suppressed because their session had already handled that
    /// sequence number (reconnect replays, retransmits).
    pub replays_suppressed: AtomicU64,
    /// Reports shed with [`ShedReason::QueueFull`].
    pub shed_queue_full: AtomicU64,
    /// Reports shed with [`ShedReason::DeadlineExceeded`].
    pub shed_deadline_exceeded: AtomicU64,
    /// Reports shed with [`ShedReason::SessionQuota`].
    pub shed_session_quota: AtomicU64,
    /// Reports shed with [`ShedReason::EngineDegraded`].
    pub shed_engine_degraded: AtomicU64,
    /// Times the watchdog tripped the server into degraded mode.
    pub degraded_entries: AtomicU64,
    /// `SnapshotPush` frames sent to subscribed sessions.
    pub snapshots_pushed: AtomicU64,
    /// Times this server took over as primary (a standby promotion
    /// crowned it; the epoch gauge records the fencing epoch it serves).
    pub failovers: AtomicU64,
    /// Gauge: reports currently waiting in the admission queue.
    pub queue_depth: AtomicU64,
    /// Gauge: sessions currently known to the registry.
    pub sessions_active: AtomicU64,
    /// Gauge: milliseconds spent in the current degraded episode, 0 when
    /// healthy. Refreshed by the watchdog tick, so it lags by one tick.
    pub degraded_since_ms: AtomicU64,
    /// Gauge: the fencing epoch this server serves at. Replication frames
    /// carry it; a promoted standby serves at the old primary's epoch + 1.
    pub epoch: AtomicU64,
    /// Gauge: whether the server is currently in degraded mode.
    pub degraded: AtomicBool,
    /// Spans overwritten in the causal span sink before a snapshot could
    /// read them (synced from the sink by the watchdog; 0 with tracing
    /// off).
    pub spans_dropped: AtomicU64,
    /// Trace ids minted in this process — head-sampled admits plus the
    /// always-sampled sheds (synced from the sink by the watchdog).
    pub traces_sampled: AtomicU64,
    /// Gauge: exemplar trace ids currently attached to ingest-wait
    /// histogram buckets.
    pub exemplars: AtomicU64,
    /// Wait from admission-queue entry to successful engine hand-off.
    pub ingest_wait_nanos: AtomicHistogram,
    /// Per-bucket exemplar trace ids for `ingest_wait_nanos`.
    pub ingest_wait_exemplars: ExemplarStore,
}

impl NetStats {
    /// Bumps the counter for one shed decision.
    pub fn record_shed(&self, reason: ShedReason) {
        let counter = match reason {
            ShedReason::QueueFull => &self.shed_queue_full,
            ShedReason::DeadlineExceeded => &self.shed_deadline_exceeded,
            ShedReason::SessionQuota => &self.shed_session_quota,
            ShedReason::EngineDegraded => &self.shed_engine_degraded,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Materializes a plain-value copy for reporting. Advisory: concurrent
    /// updates may straddle the scan, which is fine for exposition.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        NetStatsSnapshot {
            connections_accepted: load(&self.connections_accepted),
            connections_rejected: load(&self.connections_rejected),
            sessions_opened: load(&self.sessions_opened),
            sessions_resumed: load(&self.sessions_resumed),
            sessions_evicted: load(&self.sessions_evicted),
            frames_received: load(&self.frames_received),
            frames_malformed: load(&self.frames_malformed),
            partial_disconnects: load(&self.partial_disconnects),
            reports_accepted: load(&self.reports_accepted),
            replays_suppressed: load(&self.replays_suppressed),
            shed_queue_full: load(&self.shed_queue_full),
            shed_deadline_exceeded: load(&self.shed_deadline_exceeded),
            shed_session_quota: load(&self.shed_session_quota),
            shed_engine_degraded: load(&self.shed_engine_degraded),
            degraded_entries: load(&self.degraded_entries),
            snapshots_pushed: load(&self.snapshots_pushed),
            failovers: load(&self.failovers),
            queue_depth: load(&self.queue_depth),
            sessions_active: load(&self.sessions_active),
            degraded_since_ms: load(&self.degraded_since_ms),
            epoch: load(&self.epoch),
            degraded: self.degraded.load(Ordering::Relaxed),
            spans_dropped: load(&self.spans_dropped),
            traces_sampled: load(&self.traces_sampled),
            exemplars: load(&self.exemplars),
            ingest_wait_nanos: self.ingest_wait_nanos.snapshot(),
            ingest_wait_exemplars: self.ingest_wait_exemplars.snapshot(),
        }
    }

    /// Records a traced ingest wait as an exemplar and refreshes the
    /// `exemplars` gauge. No-op for untraced reports (`trace == 0`).
    pub fn record_exemplar(&self, wait_nanos: u64, trace: u64) {
        if trace == 0 {
            return;
        }
        let count = self.ingest_wait_exemplars.record(wait_nanos, trace);
        self.exemplars.store(count, Ordering::Relaxed);
    }
}

/// Plain-value copy of [`NetStats`], embedded in the unified report
/// [`Snapshot`](crate::report::Snapshot). Field meanings match the live
/// struct one-for-one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStatsSnapshot {
    /// TCP connections the accept loop handed to a handler thread.
    pub connections_accepted: u64,
    /// TCP connections refused before a handler ran (connection cap).
    pub connections_rejected: u64,
    /// Sessions created by a `Hello` with no resumable predecessor.
    pub sessions_opened: u64,
    /// Sessions resumed by a `Hello` naming a known session id.
    pub sessions_resumed: u64,
    /// Connections evicted by the server.
    pub sessions_evicted: u64,
    /// Well-formed frames decoded across all connections.
    pub frames_received: u64,
    /// Frames rejected by the codec.
    pub frames_malformed: u64,
    /// Connections that died mid-frame.
    pub partial_disconnects: u64,
    /// Reports drained from the admission queue into the engine.
    pub reports_accepted: u64,
    /// Reports suppressed as session replays.
    pub replays_suppressed: u64,
    /// Reports shed with [`ShedReason::QueueFull`].
    pub shed_queue_full: u64,
    /// Reports shed with [`ShedReason::DeadlineExceeded`].
    pub shed_deadline_exceeded: u64,
    /// Reports shed with [`ShedReason::SessionQuota`].
    pub shed_session_quota: u64,
    /// Reports shed with [`ShedReason::EngineDegraded`].
    pub shed_engine_degraded: u64,
    /// Times the watchdog tripped degraded mode.
    pub degraded_entries: u64,
    /// `SnapshotPush` frames sent.
    pub snapshots_pushed: u64,
    /// Times this server took over as primary via standby promotion.
    pub failovers: u64,
    /// Gauge: reports waiting in the admission queue at snapshot time.
    pub queue_depth: u64,
    /// Gauge: sessions known to the registry at snapshot time.
    pub sessions_active: u64,
    /// Gauge: milliseconds in the current degraded episode, 0 if healthy.
    pub degraded_since_ms: u64,
    /// Gauge: the fencing epoch this server serves at.
    pub epoch: u64,
    /// Gauge: whether degraded mode was active at snapshot time.
    pub degraded: bool,
    /// Spans overwritten in the causal span sink before being read.
    pub spans_dropped: u64,
    /// Trace ids minted in this process (sampled admits + forced sheds).
    pub traces_sampled: u64,
    /// Gauge: exemplar trace ids attached to ingest-wait buckets.
    pub exemplars: u64,
    /// Wait from admission-queue entry to successful engine hand-off.
    pub ingest_wait_nanos: LogHistogram,
    /// Per-bucket exemplar trace ids for `ingest_wait_nanos`, slowest
    /// bucket first.
    pub ingest_wait_exemplars: Vec<WaitExemplar>,
}

impl NetStatsSnapshot {
    /// Total reports shed, across all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full
            + self.shed_deadline_exceeded
            + self.shed_session_quota
            + self.shed_engine_degraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_reason_codes_round_trip() {
        for reason in ShedReason::ALL {
            assert_eq!(ShedReason::from_code(reason.code()), Some(reason));
        }
        assert_eq!(ShedReason::from_code(4), None);
        assert_eq!(ShedReason::from_code(255), None);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = ShedReason::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn record_shed_routes_to_the_right_counter() {
        let stats = NetStats::default();
        stats.record_shed(ShedReason::QueueFull);
        stats.record_shed(ShedReason::QueueFull);
        stats.record_shed(ShedReason::EngineDegraded);
        let snap = stats.snapshot();
        assert_eq!(snap.shed_queue_full, 2);
        assert_eq!(snap.shed_engine_degraded, 1);
        assert_eq!(snap.shed_deadline_exceeded, 0);
        assert_eq!(snap.shed_session_quota, 0);
        assert_eq!(snap.shed_total(), 3);
    }

    #[test]
    fn exemplars_keep_the_slowest_per_bucket() {
        let stats = NetStats::default();
        // Untraced waits never become exemplars.
        stats.record_exemplar(1_000, 0);
        assert_eq!(stats.snapshot().exemplars, 0);
        // 1_000 and 1_010 share a bucket: the slower wait wins it.
        stats.record_exemplar(1_010, 0xB);
        stats.record_exemplar(1_000, 0xA);
        stats.record_exemplar(1_000_000, 0xC);
        let snap = stats.snapshot();
        assert_eq!(snap.exemplars, 2);
        assert_eq!(snap.ingest_wait_exemplars.len(), 2);
        // Slowest bucket first, and the shared bucket kept trace 0xB.
        assert_eq!(snap.ingest_wait_exemplars[0].trace, 0xC);
        assert_eq!(snap.ingest_wait_exemplars[1].trace, 0xB);
        assert_eq!(snap.ingest_wait_exemplars[1].wait_nanos, 1_010);
    }

    #[test]
    fn snapshot_copies_gauges_and_histogram() {
        let stats = NetStats::default();
        stats.queue_depth.store(7, Ordering::Relaxed);
        stats.degraded.store(true, Ordering::Relaxed);
        stats.ingest_wait_nanos.record(1_500);
        let snap = stats.snapshot();
        assert_eq!(snap.queue_depth, 7);
        assert!(snap.degraded);
        assert_eq!(snap.ingest_wait_nanos.count(), 1);
    }
}
