//! Session registry: per-client sequence spaces and replay suppression.
//!
//! A *session* is a client's durable identity across TCP connections. Each
//! session owns a gapless wire-sequence space chosen by the client; the
//! registry tracks two lines through it:
//!
//! * `enqueued_up_to` — the **dedup line**: every wire seq at or below it
//!   is either waiting in the admission queue or already terminal. A
//!   report at or below this line is a replay (a reconnect retransmit) and
//!   is suppressed without touching the engine — this is what makes
//!   reconnect-and-replay duplicate-free *before* the ingest gate even
//!   sees it.
//! * `handled_up_to` — the **ack line**: every wire seq at or below it is
//!   terminal (drained into the engine or shed). This is what `Ack`
//!   frames carry; the client trims its resend buffer with it.
//!
//! Between the two lines sit the session's reports still waiting in the
//! admission queue (`pending`). Because the global queue is FIFO, each
//! session's pending set is an ascending run and the ack line is simply
//! `pending.front() - 1`.
//!
//! Reconnects *take over*: a `Hello` resuming a session bumps its epoch,
//! and the previous connection's handler notices the stale epoch and
//! retires quietly. Disconnected sessions with nothing in flight are
//! garbage-collected after an idle TTL so reconnect storms cannot pin
//! registry slots forever.
//!
//! **Outbound.** Everything the server has to say to a session — `Shed`
//! notes, the freshest snapshot, a moved ack line, the goodbye — is
//! session state under the registry lock, and the connection's writer half
//! parks on it in [`SessionRegistry::wait_outbound`]. Two rules keep the
//! wire honest: a seq turns terminal and its `Shed` note is queued in
//! *one* lock hold ([`SessionRegistry::shed`]), and the writer takes the
//! notes and reads the ack line in one lock hold too — so an `Ack` can
//! never reach the client ahead of the `Shed` for a seq it covers. Every
//! change wakes that session's writer only, and only if it is parked.

use super::stats::{NetStats, ShedReason};
use super::wire::ByeReason;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Registry sizing and retention policy.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Hard cap on simultaneously known sessions; `Hello` beyond it is
    /// refused with `Bye(ServerFull)`.
    pub max_sessions: usize,
    /// Per-session cap on reports waiting in the admission queue; beyond
    /// it the report is shed with [`ShedReason::SessionQuota`].
    pub session_quota: usize,
}

/// How long a disconnected session with nothing in flight stays
/// resumable before the registry forgets it.
const IDLE_TTL: Duration = Duration::from_secs(60);

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_sessions: 1024,
            session_quota: 256,
        }
    }
}

/// Why a `Hello` was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenError {
    /// The registry is at `max_sessions` and nothing was collectable.
    ServerFull,
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::ServerFull => f.write_str("session registry is full"),
        }
    }
}

impl std::error::Error for OpenError {}

/// Result of a successful `Hello`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionOpen {
    /// The session id (fresh, or the resumed one).
    pub session: u64,
    /// The session's current ack line, echoed in the handshake `Ack`.
    pub handled_up_to: u64,
    /// Connection epoch; a handler whose epoch goes stale was taken over.
    pub epoch: u64,
    /// Whether an existing session was resumed (vs. freshly opened).
    pub resumed: bool,
}

/// How a submitted report relates to the session's sequence space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportClass {
    /// Already at or below the dedup line: suppress, do not re-ingest.
    Replay,
    /// The session's pending run is at quota: shed.
    QuotaExceeded,
    /// Genuinely new: admit or shed on global-queue state.
    Fresh,
}

/// A frame the pump wants a session's connection to send.
#[derive(Debug, Clone, PartialEq)]
pub enum OutboundNote {
    /// A queued report was shed after admission (deadline, engine death).
    Shed {
        /// Wire seq of the shed report.
        seq: u64,
        /// Why it was shed.
        reason: ShedReason,
    },
    /// A server-pushed top-k snapshot.
    Snapshot {
        /// Whether the server was degraded when the snapshot was taken.
        degraded: bool,
        /// `(place_id, safety)` entries in result order.
        entries: Vec<(u32, i64)>,
    },
}

/// How the connection a writer half serves stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Live: write what was handed over and come back for more.
    Open,
    /// The reader half hung up: write what was handed over, then the
    /// goodbye if there is one, and stop.
    Closed(Option<ByeReason>),
    /// A reconnect took the session over (or the registry forgot it):
    /// stop without a word, the successor speaks for the session now.
    Retired,
}

/// What [`SessionRegistry::wait_outbound`] hands a connection's writer
/// half: one consistent cut of the session's outbound state.
#[derive(Debug, Clone, PartialEq)]
pub struct Outbound {
    /// Queued sheds and the freshest snapshot, oldest first. They go on
    /// the wire *before* an `Ack` carrying [`handled_up_to`](Self::handled_up_to).
    pub notes: Vec<OutboundNote>,
    /// The ack line as of the lock hold that took `notes`: every shed seq
    /// it covers has its note in `notes` or in an earlier cut.
    pub handled_up_to: u64,
    /// Whether to keep going.
    pub link: Link,
}

#[derive(Debug)]
struct SessionState {
    enqueued_up_to: u64,
    pending: VecDeque<u64>,
    epoch: u64,
    connected: bool,
    last_seen: Instant,
    outbox: Vec<OutboundNote>,
    /// Goodbye the reader half left for the writer half at hang-up.
    bye: Option<ByeReason>,
    /// What the current connection's writer half parks on (always with
    /// the registry mutex); replaced at takeover so a successor never
    /// shares a wait queue with the writer it retires.
    wake: Arc<Condvar>,
    /// Whether that writer is parked and nobody has woken it yet.
    writer_parked: bool,
}

impl SessionState {
    /// Claims the wake-up of a parked writer: the caller notifies the
    /// returned condvar once it has dropped the registry lock. `None`
    /// when the writer is awake (it re-reads the state under the lock
    /// before it parks) — no futex call is made for nobody.
    fn claim_wake(&mut self) -> Option<Arc<Condvar>> {
        if !self.writer_parked {
            return None;
        }
        self.writer_parked = false;
        Some(Arc::clone(&self.wake))
    }
}

#[derive(Debug)]
struct Inner {
    next_id: u64,
    sessions: HashMap<u64, SessionState>,
}

/// The shared session table. All methods are `&self`; one mutex guards the
/// table (sessions are touched a handful of times per report, and the
/// admission queue, not this map, is the contended structure).
#[derive(Debug)]
pub struct SessionRegistry {
    config: SessionConfig,
    inner: Mutex<Inner>,
    stats: Arc<NetStats>,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new(config: SessionConfig, stats: Arc<NetStats>) -> Self {
        SessionRegistry {
            config,
            inner: Mutex::new(Inner {
                next_id: 1,
                sessions: HashMap::new(),
            }),
            stats,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn publish_active(&self, inner: &Inner) {
        self.stats.sessions_active.store(
            ctup_spatial::convert::count64(inner.sessions.len()),
            Ordering::Relaxed,
        );
    }

    /// Handles a `Hello`: resumes `resume` if it names a live session
    /// (bumping its epoch — the previous connection, if any, is taken
    /// over), otherwise opens a fresh session.
    pub fn open(&self, resume: u64, now: Instant) -> Result<SessionOpen, OpenError> {
        let mut inner = self.lock();
        if resume != 0 {
            if let Some(state) = inner.sessions.get_mut(&resume) {
                state.epoch += 1;
                state.connected = true;
                state.bye = None;
                state.last_seen = now;
                // Retire the previous connection's writer half.
                let retired = state.claim_wake();
                state.wake = Arc::default();
                let open = SessionOpen {
                    session: resume,
                    handled_up_to: handled_line(state),
                    epoch: state.epoch,
                    resumed: true,
                };
                self.stats.sessions_resumed.fetch_add(1, Ordering::Relaxed);
                drop(inner);
                if let Some(retired) = retired {
                    retired.notify_one();
                }
                return Ok(open);
            }
        }
        if inner.sessions.len() >= self.config.max_sessions {
            self.collect_idle(&mut inner, now);
            if inner.sessions.len() >= self.config.max_sessions {
                return Err(OpenError::ServerFull);
            }
        }
        let session = inner.next_id;
        inner.next_id += 1;
        inner.sessions.insert(
            session,
            SessionState {
                enqueued_up_to: 0,
                pending: VecDeque::new(),
                epoch: 1,
                connected: true,
                last_seen: now,
                outbox: Vec::new(),
                bye: None,
                wake: Arc::default(),
                writer_parked: false,
            },
        );
        self.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
        self.publish_active(&inner);
        Ok(SessionOpen {
            session,
            handled_up_to: 0,
            epoch: 1,
            resumed: false,
        })
    }

    /// Classifies a submitted wire seq against the session's lines.
    pub fn classify(&self, session: u64, seq: u64) -> ReportClass {
        let mut inner = self.lock();
        let Some(state) = inner.sessions.get_mut(&session) else {
            // Unknown session (GC'd under a live handler): treat as replay
            // so nothing new enters the engine through a dead session.
            return ReportClass::Replay;
        };
        state.last_seen = Instant::now();
        if seq <= state.enqueued_up_to {
            ReportClass::Replay
        } else if state.pending.len() >= self.config.session_quota {
            ReportClass::QuotaExceeded
        } else {
            ReportClass::Fresh
        }
    }

    /// Records that `seq` entered the admission queue (advances the dedup
    /// line, appends to the pending run).
    pub fn note_enqueued(&self, session: u64, seq: u64) {
        let mut inner = self.lock();
        if let Some(state) = inner.sessions.get_mut(&session) {
            state.enqueued_up_to = state.enqueued_up_to.max(seq);
            state.pending.push_back(seq);
        }
    }

    /// Runs `change` on `session` under the registry lock, then — with the
    /// lock dropped — delivers the writer wake-up the change claimed.
    fn update(&self, session: u64, change: impl FnOnce(&mut SessionState) -> Option<Arc<Condvar>>) {
        let wake = self.lock().sessions.get_mut(&session).and_then(change);
        if let Some(wake) = wake {
            wake.notify_one();
        }
    }

    /// Records that a queued report reached the engine (pump side); wakes
    /// the session's writer half if that moved the ack line.
    pub fn drained(&self, session: u64, seq: u64) {
        self.update(session, |state| {
            let before = handled_line(state);
            remove_pending(state, seq);
            state.last_seen = Instant::now();
            if handled_line(state) > before {
                state.claim_wake()
            } else {
                None
            }
        });
    }

    /// Sheds `seq` — at the door (quota, degraded engine, a refused
    /// admission whose [`note_enqueued`](Self::note_enqueued) this rolls
    /// back) or at the drain (deadline, engine death). In one lock hold
    /// the seq turns terminal (out of the pending run, at or below the
    /// dedup line, so a retransmit is suppressed rather than re-judged)
    /// *and* its typed `Shed` note is queued: a writer half that sees the
    /// ack line cover `seq` has, by then, been handed the note.
    pub fn shed(&self, session: u64, seq: u64, reason: ShedReason) {
        self.update(session, |state| {
            remove_pending(state, seq);
            state.enqueued_up_to = state.enqueued_up_to.max(seq);
            state.outbox.push(OutboundNote::Shed { seq, reason });
            state.last_seen = Instant::now();
            state.claim_wake()
        });
    }

    /// The session's current ack line.
    pub fn handled_up_to(&self, session: u64) -> u64 {
        let inner = self.lock();
        inner.sessions.get(&session).map_or(0, handled_line)
    }

    /// Whether `epoch` is still the session's live connection epoch.
    pub fn epoch_current(&self, session: u64, epoch: u64) -> bool {
        let inner = self.lock();
        inner
            .sessions
            .get(&session)
            .is_some_and(|s| s.epoch == epoch)
    }

    /// The reader half hangs up: marks the connection closed (only if
    /// `epoch` is still current — a taken-over handler must not mark its
    /// successor disconnected) and leaves `bye`, if any, for the writer
    /// half to send after whatever is still queued.
    pub fn hang_up(&self, session: u64, epoch: u64, bye: Option<ByeReason>) {
        self.update(session, |state| {
            if state.epoch != epoch {
                return None;
            }
            state.connected = false;
            state.bye = bye;
            state.last_seen = Instant::now();
            state.claim_wake()
        });
    }

    /// Parks the writer half of connection `epoch` of `session` until the
    /// session has something to say — a queued note, an ack line past
    /// `last_acked`, a hang-up, a takeover — or `patience` runs out
    /// (`None` waits for as long as it takes; the writer passes a bound
    /// only while it has unflushed bytes to retry). Notes and ack line
    /// come from the same lock hold; see [`Outbound`].
    pub fn wait_outbound(
        &self,
        session: u64,
        epoch: u64,
        last_acked: u64,
        patience: Option<Duration>,
    ) -> Outbound {
        let deadline = patience.map(|p| Instant::now() + p);
        let mut inner = self.lock();
        loop {
            let Some(state) = inner
                .sessions
                .get_mut(&session)
                .filter(|s| s.epoch == epoch)
            else {
                return Outbound {
                    notes: Vec::new(),
                    handled_up_to: last_acked,
                    link: Link::Retired,
                };
            };
            let handled_up_to = handled_line(state);
            let timed_out = deadline.is_some_and(|d| Instant::now() >= d);
            if timed_out
                || !state.connected
                || !state.outbox.is_empty()
                || handled_up_to > last_acked
            {
                return Outbound {
                    notes: std::mem::take(&mut state.outbox),
                    handled_up_to,
                    link: if state.connected {
                        Link::Open
                    } else {
                        Link::Closed(state.bye.take())
                    },
                };
            }
            state.writer_parked = true;
            let wake = Arc::clone(&state.wake);
            inner = match deadline {
                None => match wake.wait(inner) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                },
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    match wake.wait_timeout(inner, left) {
                        Ok((guard, _)) => guard,
                        Err(poisoned) => poisoned.into_inner().0,
                    }
                }
            };
            // Woken by timeout or spuriously, the flag is still ours.
            if let Some(state) = inner.sessions.get_mut(&session) {
                if state.epoch == epoch {
                    state.writer_parked = false;
                }
            }
        }
    }

    /// Queues a snapshot push to every connected session; returns how many
    /// sessions it was queued for.
    pub fn push_snapshot_all(&self, degraded: bool, entries: &[(u32, i64)]) -> usize {
        let mut inner = self.lock();
        let mut queued = 0usize;
        let mut wakes = Vec::new();
        for state in inner.sessions.values_mut() {
            if !state.connected {
                continue;
            }
            // Replace any not-yet-delivered snapshot: only the freshest
            // matters, and this bounds outbox growth for a slow reader.
            state
                .outbox
                .retain(|n| !matches!(n, OutboundNote::Snapshot { .. }));
            state.outbox.push(OutboundNote::Snapshot {
                degraded,
                entries: entries.to_vec(),
            });
            wakes.extend(state.claim_wake());
            queued += 1;
        }
        drop(inner);
        for wake in wakes {
            wake.notify_one();
        }
        queued
    }

    /// Forgets disconnected sessions with nothing in flight that have been
    /// idle longer than the TTL. Returns how many were collected.
    pub fn gc(&self, now: Instant) -> usize {
        let mut inner = self.lock();
        let collected = self.collect_idle(&mut inner, now);
        self.publish_active(&inner);
        collected
    }

    fn collect_idle(&self, inner: &mut Inner, now: Instant) -> usize {
        let before = inner.sessions.len();
        inner.sessions.retain(|_, s| {
            s.connected
                || !s.pending.is_empty()
                || now.saturating_duration_since(s.last_seen) < IDLE_TTL
        });
        before - inner.sessions.len()
    }

    /// Sessions currently known to the registry.
    pub fn active(&self) -> usize {
        self.lock().sessions.len()
    }
}

/// `pending.front() - 1` when reports are in flight, else the dedup line.
fn handled_line(state: &SessionState) -> u64 {
    state
        .pending
        .front()
        .map_or(state.enqueued_up_to, |&first| first.saturating_sub(1))
}

/// Pops `seq` from the pending run (front in the common FIFO case; a
/// linear remove keeps the registry consistent even if drain order ever
/// deviates).
fn remove_pending(state: &mut SessionState, seq: u64) {
    if state.pending.front() == Some(&seq) {
        state.pending.pop_front();
    } else if let Some(idx) = state.pending.iter().position(|&s| s == seq) {
        state.pending.remove(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(quota: usize) -> SessionRegistry {
        SessionRegistry::new(
            SessionConfig {
                max_sessions: 4,
                session_quota: quota,
            },
            Arc::new(NetStats::default()),
        )
    }

    #[test]
    fn open_resume_and_takeover_epochs() {
        let reg = registry(8);
        let now = Instant::now();
        let a = reg.open(0, now).expect("open");
        assert!(!a.resumed);
        assert_eq!(a.epoch, 1);
        // Resume bumps the epoch; the old epoch goes stale.
        let b = reg.open(a.session, now).expect("resume");
        assert!(b.resumed);
        assert_eq!(b.session, a.session);
        assert_eq!(b.epoch, 2);
        assert!(!reg.epoch_current(a.session, a.epoch));
        assert!(reg.epoch_current(a.session, b.epoch));
        // A stale handler's hang-up must not mark the successor closed.
        reg.hang_up(a.session, a.epoch, None);
        let c = reg.open(a.session, now).expect("resume again");
        assert_eq!(c.epoch, 3);
    }

    #[test]
    fn unknown_resume_opens_fresh() {
        let reg = registry(8);
        let open = reg.open(999, Instant::now()).expect("open");
        assert!(!open.resumed);
        assert_ne!(open.session, 999);
    }

    #[test]
    fn dedup_and_ack_lines_track_the_queue() {
        let reg = registry(8);
        let s = reg.open(0, Instant::now()).expect("open").session;
        assert_eq!(reg.classify(s, 1), ReportClass::Fresh);
        reg.note_enqueued(s, 1);
        reg.note_enqueued(s, 2);
        reg.note_enqueued(s, 3);
        // All three pending: replays suppressed, ack line still zero.
        assert_eq!(reg.classify(s, 2), ReportClass::Replay);
        assert_eq!(reg.handled_up_to(s), 0);
        reg.drained(s, 1);
        assert_eq!(reg.handled_up_to(s), 1);
        reg.drained(s, 2);
        reg.drained(s, 3);
        assert_eq!(reg.handled_up_to(s), 3);
        // A door-shed seq is terminal immediately.
        reg.shed(s, 4, ShedReason::SessionQuota);
        assert_eq!(reg.classify(s, 4), ReportClass::Replay);
        assert_eq!(reg.handled_up_to(s), 4);
    }

    /// A cut of the outbound state that never parks.
    fn cut(reg: &SessionRegistry, open: SessionOpen, last_acked: u64) -> Outbound {
        reg.wait_outbound(open.session, open.epoch, last_acked, Some(Duration::ZERO))
    }

    #[test]
    fn refused_admission_shed_unpins_the_ack_line() {
        let reg = registry(8);
        let open = reg.open(0, Instant::now()).expect("open");
        let s = open.session;
        reg.note_enqueued(s, 1);
        reg.note_enqueued(s, 2);
        // Admission refused seq 2 after the registry already saw it.
        reg.shed(s, 2, ShedReason::QueueFull);
        reg.drained(s, 1);
        // The run is empty, so the line covers the (terminal) shed too.
        assert_eq!(reg.handled_up_to(s), 2);
        assert_eq!(reg.classify(s, 2), ReportClass::Replay);
        assert_eq!(cut(&reg, open, 0).notes.len(), 1);
    }

    #[test]
    fn pump_shed_removes_pending_and_queues_the_frame() {
        let reg = registry(8);
        let open = reg.open(0, Instant::now()).expect("open");
        let s = open.session;
        reg.note_enqueued(s, 1);
        reg.note_enqueued(s, 2);
        reg.shed(s, 1, ShedReason::DeadlineExceeded);
        assert_eq!(reg.handled_up_to(s), 1);
        let first = cut(&reg, open, 0);
        assert_eq!(
            first.notes,
            vec![OutboundNote::Shed {
                seq: 1,
                reason: ShedReason::DeadlineExceeded
            }]
        );
        assert_eq!(first.handled_up_to, 1);
        assert_eq!(first.link, Link::Open);
        assert!(cut(&reg, open, 1).notes.is_empty());
    }

    /// The ordering the split handler depends on: under every
    /// interleaving of a shedding thread, a draining thread and the
    /// writer half, the writer never holds an ack line covering a shed
    /// seq whose note it has not been handed — by that cut or an earlier
    /// one. Odd seqs are shed at the door after a refused admission (the
    /// case that used to be two registry calls), even ones are drained.
    #[test]
    fn writer_never_sees_an_ack_cover_a_shed_it_has_not_taken() {
        const REPORTS: u64 = 2_000;
        let reg = Arc::new(SessionRegistry::new(
            SessionConfig {
                session_quota: usize::MAX,
                ..SessionConfig::default()
            },
            Arc::new(NetStats::default()),
        ));
        let open = reg.open(0, Instant::now()).expect("open");
        let s = open.session;
        let door = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                let (to_pump, from_door) = std::sync::mpsc::sync_channel::<u64>(64);
                let pump = {
                    let reg = Arc::clone(&reg);
                    std::thread::spawn(move || {
                        for seq in from_door {
                            reg.drained(s, seq);
                        }
                    })
                };
                for seq in 1..=REPORTS {
                    reg.note_enqueued(s, seq);
                    if seq % 2 == 1 {
                        reg.shed(s, seq, ShedReason::QueueFull);
                    } else {
                        to_pump.send(seq).expect("pump alive");
                    }
                }
                drop(to_pump);
                pump.join().expect("pump");
                reg.hang_up(s, open.epoch, None);
            })
        };
        let mut taken = std::collections::HashSet::new();
        let mut last_acked = 0;
        loop {
            let out = reg.wait_outbound(s, open.epoch, last_acked, None);
            for note in &out.notes {
                if let OutboundNote::Shed { seq, .. } = note {
                    assert!(*seq > last_acked, "shed {seq} after ack {last_acked}");
                    taken.insert(*seq);
                }
            }
            for seq in (last_acked + 1..=out.handled_up_to).filter(|seq| seq % 2 == 1) {
                assert!(
                    taken.contains(&seq),
                    "ack line {} covers shed seq {seq} before its note",
                    out.handled_up_to
                );
            }
            last_acked = last_acked.max(out.handled_up_to);
            if out.link != Link::Open {
                break;
            }
        }
        door.join().expect("door");
        assert_eq!(last_acked, REPORTS);
        assert_eq!(taken.len() as u64, REPORTS / 2);
    }

    #[test]
    fn parked_writer_is_woken_per_session_and_only_when_parked() {
        let reg = Arc::new(registry(8));
        let a = reg.open(0, Instant::now()).expect("open a");
        let b = reg.open(0, Instant::now()).expect("open b");
        reg.note_enqueued(a.session, 1);
        reg.note_enqueued(b.session, 1);
        let parked = |session: u64| {
            let inner = reg.lock();
            inner
                .sessions
                .get(&session)
                .is_some_and(|s| s.writer_parked)
        };
        let writer = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || reg.wait_outbound(a.session, a.epoch, 0, None))
        };
        while !parked(a.session) {
            std::thread::yield_now();
        }
        // Another session's progress is not this writer's business.
        reg.drained(b.session, 1);
        assert!(parked(a.session), "woken by a different session");
        assert!(!parked(b.session), "nobody parks on b");
        reg.drained(a.session, 1);
        let out = writer.join().expect("writer");
        assert_eq!(out.handled_up_to, 1);
        assert!(!parked(a.session));
    }

    #[test]
    fn takeover_retires_the_old_writer_and_hang_up_hands_over_the_bye() {
        let reg = Arc::new(registry(8));
        let old = reg.open(0, Instant::now()).expect("open");
        let writer = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || reg.wait_outbound(old.session, old.epoch, 0, None))
        };
        let new = reg.open(old.session, Instant::now()).expect("resume");
        assert_eq!(writer.join().expect("old writer").link, Link::Retired);
        // The stale epoch's hang-up is ignored; the live one's carries
        // the goodbye, once.
        reg.hang_up(old.session, old.epoch, Some(ByeReason::Evicted));
        assert_eq!(cut(&reg, new, 0).link, Link::Open);
        // The closing cut still carries what is owed: note, ack, goodbye.
        reg.note_enqueued(new.session, 1);
        reg.note_enqueued(new.session, 2);
        reg.shed(new.session, 1, ShedReason::DeadlineExceeded);
        reg.drained(new.session, 2);
        reg.hang_up(new.session, new.epoch, Some(ByeReason::Shutdown));
        let last = cut(&reg, new, 0);
        assert_eq!(last.notes.len(), 1);
        assert_eq!(last.handled_up_to, 2);
        assert_eq!(last.link, Link::Closed(Some(ByeReason::Shutdown)));
    }

    #[test]
    fn quota_caps_the_pending_run() {
        let reg = registry(2);
        let s = reg.open(0, Instant::now()).expect("open").session;
        reg.note_enqueued(s, 1);
        reg.note_enqueued(s, 2);
        assert_eq!(reg.classify(s, 3), ReportClass::QuotaExceeded);
        reg.drained(s, 1);
        assert_eq!(reg.classify(s, 3), ReportClass::Fresh);
    }

    #[test]
    fn gc_forgets_only_idle_disconnected_empty_sessions() {
        let reg = registry(8);
        let now = Instant::now();
        let open = reg.open(0, now).expect("open");
        let busy = reg.open(0, now).expect("open busy");
        reg.note_enqueued(busy.session, 1);
        reg.hang_up(open.session, open.epoch, None);
        reg.hang_up(busy.session, busy.epoch, None);
        assert_eq!(reg.gc(Instant::now()), 0, "nobody idle for the TTL yet");
        let collected = reg.gc(Instant::now() + IDLE_TTL);
        assert_eq!(collected, 1, "only the empty idle session is collectable");
        assert!(reg.epoch_current(busy.session, busy.epoch));
        assert!(!reg.epoch_current(open.session, open.epoch));
    }

    #[test]
    fn registry_cap_refuses_then_recovers_via_gc() {
        let reg = registry(8);
        let now = Instant::now();
        let opens: Vec<SessionOpen> = (0..4).map(|_| reg.open(0, now).expect("open")).collect();
        assert_eq!(reg.open(0, now), Err(OpenError::ServerFull));
        for o in &opens {
            reg.hang_up(o.session, o.epoch, None);
        }
        assert_eq!(reg.open(0, Instant::now()), Err(OpenError::ServerFull));
        // The cap path collects idle sessions before refusing.
        assert!(reg.open(0, Instant::now() + IDLE_TTL).is_ok());
    }

    #[test]
    fn snapshot_pushes_replace_stale_ones() {
        let reg = registry(8);
        let open = reg.open(0, Instant::now()).expect("open");
        assert_eq!(reg.push_snapshot_all(false, &[(1, 5)]), 1);
        assert_eq!(reg.push_snapshot_all(true, &[(2, -1)]), 1);
        let notes = cut(&reg, open, 0).notes;
        assert_eq!(notes.len(), 1, "older snapshot replaced");
        assert_eq!(
            notes[0],
            OutboundNote::Snapshot {
                degraded: true,
                entries: vec![(2, -1)]
            }
        );
    }
}
