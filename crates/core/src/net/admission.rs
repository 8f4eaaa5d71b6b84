//! The bounded admission queue between the network and the engine.
//!
//! Connection handlers enqueue validated, deduplicated reports; a single
//! drain pump pops them and feeds the supervised pipeline. The queue is
//! the only elastic buffer in the front door, and it is deliberately
//! *small and honest*: when the engine cannot keep up, reports are shed
//! with a typed reason instead of queueing without bound.
//!
//! Shedding is hysteretic. Crossing the **high watermark** trips the
//! queue into shed state; it stays shedding until depth falls back to the
//! **low watermark**. Without the hysteresis band an overloaded server
//! would oscillate at the boundary, alternately accepting and refusing
//! neighbouring reports from the same batch — the band converts that
//! flapping into one clean shed interval per overload episode.
//!
//! Every queued report carries its arrival instant; the pump sheds
//! reports older than the ingest deadline (`DeadlineExceeded`) rather
//! than feeding the engine positions so stale the next genuine report
//! would immediately overwrite them.
//!
//! **Park and kick.** The pump sleeps in [`AdmissionQueue::pop`] when the
//! queue is empty, and two things wake it: a report arriving, and
//! [`AdmissionQueue::kick`] — the engine saying its durable mark moved, so
//! the pump has acks to hand out although nothing arrived. Both the
//! "is anyone parked" flag and the kick itself live under the queue
//! mutex: `pop` re-checks "queue non-empty or kicked" under that mutex
//! right before it parks, so a kick that lands first is not lost (it
//! stays set until a `pop` consumes it), and a producer that finds nobody
//! parked makes no wake-up call at all. One consumer (the pump) is
//! assumed; a second one would only ever cost it a full `timeout`.

use super::stats::{NetStats, ShedReason};
use crate::ingest::StampedUpdate;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Sizing and policy of the admission queue.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Hard bound on queued reports; enqueue beyond it always sheds.
    pub queue_capacity: usize,
    /// Depth at which the queue trips into shed state.
    pub high_watermark: usize,
    /// Depth at which a shedding queue resumes accepting.
    pub low_watermark: usize,
    /// Maximum time a report may wait before the pump sheds it.
    pub ingest_deadline: Duration,
    /// How long the watchdog tolerates a backlogged queue making no drain
    /// progress before tripping degraded mode.
    pub stall_grace: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 4096,
            high_watermark: 3072,
            low_watermark: 1024,
            ingest_deadline: Duration::from_secs(2),
            stall_grace: Duration::from_secs(1),
        }
    }
}

impl AdmissionConfig {
    /// Clamps the watermarks into a consistent order:
    /// `low <= high <= capacity`, capacity at least 1.
    pub fn normalized(mut self) -> Self {
        self.queue_capacity = self.queue_capacity.max(1);
        self.high_watermark = self.high_watermark.clamp(1, self.queue_capacity);
        self.low_watermark = self
            .low_watermark
            .min(self.high_watermark.saturating_sub(1));
        self
    }
}

/// One report waiting for the engine, stamped with its session identity
/// and arrival time.
#[derive(Debug, Clone)]
pub struct QueuedReport {
    /// Owning session.
    pub session: u64,
    /// Wire sequence number within the session.
    pub seq: u64,
    /// The validated report to feed the ingest gate.
    pub report: StampedUpdate,
    /// When the report entered the queue.
    pub enqueued_at: Instant,
    /// Causal trace id riding the report (0 = untraced). Carried so the
    /// pump can stamp the queue-wait span and hand the id to the engine.
    pub trace: u64,
    /// Span-clock stamp ([`ctup_obs::now_nanos`]) of queue entry; pairs
    /// with the pump's hand-off stamp to bound the queue-wait span. Zero
    /// when the report is untraced.
    pub enqueued_nanos: u64,
}

/// What the queue mutex guards.
#[derive(Debug, Default)]
struct QueueState {
    items: VecDeque<QueuedReport>,
    /// The consumer is waiting on `available` and nobody has woken it yet.
    parked: bool,
    /// A kick no `pop` has consumed yet.
    kicked: bool,
}

impl QueueState {
    /// Claims the wake-up of a parked consumer: `true` means the caller
    /// must notify `available` once it has dropped the lock.
    fn claim_wake(&mut self) -> bool {
        std::mem::take(&mut self.parked)
    }
}

/// The bounded, watermarked admission queue.
#[derive(Debug)]
pub struct AdmissionQueue {
    config: AdmissionConfig,
    state: Mutex<QueueState>,
    available: Condvar,
    shedding: AtomicBool,
    stats: Arc<NetStats>,
}

impl AdmissionQueue {
    /// An empty queue with `config` (normalized).
    pub fn new(config: AdmissionConfig, stats: Arc<NetStats>) -> Self {
        AdmissionQueue {
            config: config.normalized(),
            state: Mutex::default(),
            available: Condvar::new(),
            shedding: AtomicBool::new(false),
            stats,
        }
    }

    /// The queue's (normalized) configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn publish_depth(&self, depth: usize) {
        self.stats
            .queue_depth
            .store(ctup_spatial::convert::count64(depth), Ordering::Relaxed);
    }

    /// Admits a report or sheds it with [`ShedReason::QueueFull`],
    /// applying the watermark hysteresis.
    pub fn try_enqueue(&self, item: QueuedReport) -> Result<(), ShedReason> {
        let mut state = self.lock();
        let depth = state.items.len();
        if depth >= self.config.queue_capacity {
            // Relaxed: shedding is only written under the queue mutex; the unlock publishes it
            self.shedding.store(true, Ordering::Relaxed);
            return Err(ShedReason::QueueFull);
        }
        // Relaxed: read under the queue mutex, so this sees every write made by prior admits
        if self.shedding.load(Ordering::Relaxed) {
            if depth > self.config.low_watermark {
                return Err(ShedReason::QueueFull);
            }
            // Relaxed: shedding is only written under the queue mutex; the unlock publishes it
            self.shedding.store(false, Ordering::Relaxed);
        } else if depth >= self.config.high_watermark {
            // Relaxed: shedding is only written under the queue mutex; the unlock publishes it
            self.shedding.store(true, Ordering::Relaxed);
            return Err(ShedReason::QueueFull);
        }
        state.items.push_back(item);
        self.publish_depth(state.items.len());
        let wake = state.claim_wake();
        drop(state);
        if wake {
            self.available.notify_one();
        }
        Ok(())
    }

    /// Pops the oldest report, waiting up to `timeout` for one to arrive.
    /// Comes back early, empty-handed, when [`kick`](Self::kick)ed — also
    /// by a kick that landed before the call.
    pub fn pop(&self, timeout: Duration) -> Option<QueuedReport> {
        let mut state = self.lock();
        if state.items.is_empty() && !state.kicked {
            state.parked = true;
            let (guard, _) = match self.available.wait_timeout(state, timeout) {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            state = guard;
            // Woken by the timeout, the flag is still ours to clear.
            state.parked = false;
        }
        state.kicked = false;
        let item = state.items.pop_front();
        self.publish_depth(state.items.len());
        item
    }

    /// Sends the consumer back out of [`pop`](Self::pop) without a report:
    /// there is work for it that did not come through the queue. Sticky
    /// until a `pop` consumes it; wakes the consumer only if it is parked.
    pub fn kick(&self) {
        let mut state = self.lock();
        state.kicked = true;
        let wake = state.claim_wake();
        drop(state);
        if wake {
            self.available.notify_one();
        }
    }

    /// Reports currently queued.
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the hysteresis is currently in the shed state.
    pub fn is_shedding(&self) -> bool {
        // Relaxed: advisory lock-free peek for metrics; admits re-check under the mutex
        self.shedding.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{LocationUpdate, UnitId};
    use ctup_spatial::Point;

    fn item(seq: u64) -> QueuedReport {
        QueuedReport {
            session: 1,
            seq,
            report: StampedUpdate {
                seq,
                ts: 0,
                update: LocationUpdate {
                    unit: UnitId(0),
                    new: Point::new(0.5, 0.5),
                },
            },
            enqueued_at: Instant::now(),
            trace: 0,
            enqueued_nanos: 0,
        }
    }

    fn queue(capacity: usize, high: usize, low: usize) -> AdmissionQueue {
        AdmissionQueue::new(
            AdmissionConfig {
                queue_capacity: capacity,
                high_watermark: high,
                low_watermark: low,
                ..AdmissionConfig::default()
            },
            Arc::new(NetStats::default()),
        )
    }

    #[test]
    fn normalization_orders_the_watermarks() {
        let cfg = AdmissionConfig {
            queue_capacity: 10,
            high_watermark: 50,
            low_watermark: 50,
            ..AdmissionConfig::default()
        }
        .normalized();
        assert_eq!(cfg.high_watermark, 10);
        assert_eq!(cfg.low_watermark, 9);
    }

    #[test]
    fn sheds_at_high_watermark_until_drained_to_low() {
        let q = queue(100, 4, 1);
        for seq in 0..4 {
            q.try_enqueue(item(seq)).expect("below high watermark");
        }
        // Depth 4 == high: trips shedding.
        assert_eq!(q.try_enqueue(item(4)), Err(ShedReason::QueueFull));
        assert!(q.is_shedding());
        // Draining to 2 (> low) still sheds; at low (1) it reopens.
        q.pop(Duration::from_millis(1)).expect("pop");
        q.pop(Duration::from_millis(1)).expect("pop");
        assert_eq!(q.try_enqueue(item(5)), Err(ShedReason::QueueFull));
        q.pop(Duration::from_millis(1)).expect("pop");
        assert_eq!(q.depth(), 1);
        q.try_enqueue(item(6)).expect("reopened at low watermark");
        assert!(!q.is_shedding());
    }

    #[test]
    fn hard_capacity_always_sheds() {
        let q = queue(2, 2, 0);
        q.try_enqueue(item(0)).expect("first");
        q.try_enqueue(item(1)).expect("second");
        assert_eq!(q.try_enqueue(item(2)), Err(ShedReason::QueueFull));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn pop_wakes_on_enqueue_and_preserves_fifo() {
        let q = Arc::new(queue(16, 15, 2));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut seqs = Vec::new();
            while seqs.len() < 3 {
                if let Some(got) = q2.pop(Duration::from_millis(200)) {
                    seqs.push(got.seq);
                }
            }
            seqs
        });
        for seq in [10, 11, 12] {
            q.try_enqueue(item(seq)).expect("enqueue");
        }
        let seqs = consumer.join().expect("consumer");
        assert_eq!(seqs, vec![10, 11, 12]);
    }

    #[test]
    fn a_kick_that_lands_before_the_pop_is_not_lost() {
        let q = queue(4, 3, 1);
        q.kick();
        let start = Instant::now();
        assert!(q.pop(Duration::from_secs(10)).is_none());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the kick was lost"
        );
        // Consumed: the next pop waits its timeout out again.
        let start = Instant::now();
        assert!(q.pop(Duration::from_millis(20)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn kick_and_enqueue_wake_a_parked_pop_and_nobody_else() {
        let q = Arc::new(queue(4, 3, 1));
        let parked = |q: &AdmissionQueue| q.lock().parked;
        // Nobody parked: neither call has anyone to wake, the kick stays.
        q.try_enqueue(item(1)).expect("enqueue");
        assert!(!parked(&q));
        assert_eq!(q.pop(Duration::ZERO).map(|r| r.seq), Some(1));
        for wake_by_kick in [true, false] {
            let consumer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let start = Instant::now();
                    (q.pop(Duration::from_secs(10)), start.elapsed())
                })
            };
            while !parked(&q) {
                std::thread::yield_now();
            }
            if wake_by_kick {
                q.kick();
            } else {
                q.try_enqueue(item(2)).expect("enqueue");
            }
            // The waker claimed the wake-up: a second one would find
            // nobody parked and make no call.
            assert!(!parked(&q));
            let (got, waited) = consumer.join().expect("consumer");
            assert_eq!(got.map(|r| r.seq), (!wake_by_kick).then_some(2));
            assert!(waited < Duration::from_secs(5), "never woken");
        }
    }

    #[test]
    fn pop_times_out_empty() {
        let q = queue(4, 3, 1);
        let start = Instant::now();
        assert!(q.pop(Duration::from_millis(20)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }
}
