//! The zero-dependency feed client: sessioned submission with exponential
//! backoff, bounded retry, and reconnect-and-replay.
//!
//! The client owns two queues. **unsent** holds reports that have never
//! been written on the current connection; **unacked** holds reports that
//! were written but whose sequence numbers the server has not yet covered
//! with an `Ack`. On reconnect, everything unacked moves back to the front
//! of the unsent queue — the server's session registry suppresses any
//! replays of sequence numbers it already handled, so replaying the tail
//! is always safe and never double-applies.
//!
//! Terminal accounting: a sequence number becomes terminal when the
//! server's `handled_up_to` line passes it. If a `Shed` frame for it
//! arrived first (the server writes sheds before the covering ack), it
//! counts as shed with its typed reason; otherwise it counts as accepted.
//! A shed sequence number is never retried — overload must not amplify
//! itself through retry storms.
//!
//! Reconnection uses exponential backoff with deterministic, seeded
//! jitter (`delay/2 + uniform(0, delay/2)`) and a bounded number of
//! *consecutive* failed attempts; any successful handshake resets the
//! budget. With the seed fixed, a chaos test replays the exact same
//! reconnect schedule every run.

use super::stats::ShedReason;
use super::wire::{ByeReason, FrameDecoder, FrameWriter, Message};
use crate::ingest::StampedUpdate;
use ctup_obs::{now_nanos, sample_trace, SpanSink, Stage};
use std::collections::{HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A bidirectional byte stream the client can speak the wire protocol
/// over. Implementations must have short read/write timeouts configured
/// so the client's polling loop stays responsive.
pub trait Conn: Read + Write + Send {}

impl<T: Read + Write + Send> Conn for T {}

/// Produces connections; the client redials through this on every
/// reconnect, so a test dialer can inject faults per attempt.
pub trait Dialer: Send {
    /// Opens a fresh connection to the server.
    fn dial(&mut self) -> std::io::Result<Box<dyn Conn>>;
}

/// Dials a TCP address list with a connect timeout and short I/O
/// timeouts, one address per attempt in round-robin order, primary first.
///
/// The feed client redials through its [`Dialer`] with seeded-jitter
/// backoff on every reconnect; with a failover list
/// ([`TcpDialer::failover`]) each attempt targets the next address, so
/// when the primary dies and a standby promotes itself, the client walks
/// onto the promoted server within one backoff cycle — the session resume
/// in its `Hello` opens a fresh session there (the promoted registry mints
/// epoch-fenced ids) and the unacked tail is replayed, deduplicated by the
/// standby's gate.
#[derive(Debug, Clone)]
pub struct TcpDialer {
    /// Never empty: the constructors take the primary separately.
    addrs: Vec<SocketAddr>,
    next: usize,
    /// Bound on each connect attempt.
    pub connect_timeout: Duration,
    /// Read/write timeout installed on the socket.
    pub io_tick: Duration,
}

impl TcpDialer {
    /// A dialer for `addr` alone with library-default timeouts.
    pub fn new(addr: SocketAddr) -> Self {
        TcpDialer::failover(addr, [])
    }

    /// A dialer rotating over `primary` and then `standbys`.
    pub fn failover(primary: SocketAddr, standbys: impl IntoIterator<Item = SocketAddr>) -> Self {
        TcpDialer {
            addrs: std::iter::once(primary).chain(standbys).collect(),
            next: 0,
            connect_timeout: Duration::from_secs(2),
            io_tick: Duration::from_millis(25),
        }
    }
}

impl Dialer for TcpDialer {
    fn dial(&mut self) -> std::io::Result<Box<dyn Conn>> {
        let addr = self.addrs[self.next];
        self.next = (self.next + 1) % self.addrs.len();
        let stream = TcpStream::connect_timeout(&addr, self.connect_timeout)?;
        stream.set_read_timeout(Some(self.io_tick))?;
        stream.set_write_timeout(Some(self.io_tick))?;
        let _ = stream.set_nodelay(true);
        Ok(Box::new(stream))
    }
}

/// Exponential backoff with seeded jitter and a bounded attempt budget.
#[derive(Debug, Clone)]
pub struct BackoffConfig {
    /// Delay before the first retry.
    pub base: Duration,
    /// Ceiling on the (pre-jitter) delay.
    pub max: Duration,
    /// Consecutive failed attempts tolerated before giving up; any
    /// successful handshake resets the count.
    pub max_attempts: u32,
    /// Seed for the jitter generator; fixed seed, fixed schedule.
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base: Duration::from_millis(10),
            max: Duration::from_millis(500),
            max_attempts: 8,
            seed: 0x5eed_f00d,
        }
    }
}

/// Client-side knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Reconnect policy.
    pub backoff: BackoffConfig,
    /// Handshake must complete (Hello out, Ack back) within this.
    pub handshake_deadline: Duration,
    /// Cap on reports written ahead of the server's ack line; bounds the
    /// replay tail after a reconnect. Keep it below the server's
    /// per-session quota (`SessionConfig::session_quota`, 256 by default)
    /// or a reconnect burst can replay faster than the pump drains and
    /// shed its own tail with `SessionQuota`.
    pub max_in_flight: usize,
    /// Where client-send spans land; `None` disables client-side tracing
    /// entirely (reports go out untraced and the server may still sample
    /// them at admission).
    pub spans: Option<Arc<SpanSink>>,
    /// Head-based sampling rate: mint a trace id for one in every N
    /// enqueued reports (0 = never, 1 = every report). Only consulted
    /// when `spans` is set.
    pub trace_sample_every: u64,
    /// Seed mixed into minted trace ids; fix it to make a feed run's
    /// trace ids reproducible.
    pub trace_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            backoff: BackoffConfig::default(),
            handshake_deadline: Duration::from_secs(2),
            max_in_flight: 128,
            spans: None,
            trace_sample_every: 0,
            trace_seed: 0,
        }
    }
}

/// One shed decision the server reported, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedRecord {
    /// Wire sequence number of the shed report.
    pub seq: u64,
    /// Why the server refused it.
    pub reason: ShedReason,
}

/// What happened to everything the client submitted.
#[derive(Debug, Clone, Default)]
pub struct ClientStats {
    /// Reports handed to [`FeedClient::enqueue`].
    pub enqueued: u64,
    /// Report frames written (including replays after reconnects).
    pub frames_sent: u64,
    /// Sequence numbers that became terminal as accepted.
    pub acked: u64,
    /// Sheds, in the order their frames arrived.
    pub sheds: Vec<ShedRecord>,
    /// Successful handshakes after the first (i.e. reconnects).
    pub reconnects: u64,
    /// Snapshot pushes received.
    pub snapshots_received: u64,
}

impl ClientStats {
    /// Total sequence numbers shed.
    pub fn shed_total(&self) -> u64 {
        u64::try_from(self.sheds.len()).unwrap_or(u64::MAX)
    }
}

/// Why [`FeedClient::drive`] stopped before everything became terminal.
#[derive(Debug)]
pub enum ClientError {
    /// The consecutive-attempt budget ran out.
    RetriesExhausted,
    /// The caller's overall deadline expired.
    DeadlineExpired,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::RetriesExhausted => f.write_str("reconnect attempts exhausted"),
            ClientError::DeadlineExpired => f.write_str("drive deadline expired"),
        }
    }
}

impl std::error::Error for ClientError {}

struct Connection {
    conn: Box<dyn Conn>,
    decoder: FrameDecoder,
    writer: FrameWriter,
}

/// The sessioned feed client.
pub struct FeedClient {
    dialer: Box<dyn Dialer>,
    config: ClientConfig,
    session: u64,
    next_seq: u64,
    handled_up_to: u64,
    unsent: VecDeque<(u64, StampedUpdate, u64)>,
    unacked: VecDeque<(u64, StampedUpdate, u64)>,
    shed_seqs: HashSet<u64>,
    stats: ClientStats,
    conn: Option<Connection>,
    attempts: u32,
    rng: u64,
    handshakes: u64,
    last_snapshot: Option<(bool, Vec<(u32, i64)>)>,
}

impl std::fmt::Debug for FeedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedClient")
            .field("session", &self.session)
            .field("next_seq", &self.next_seq)
            .field("unsent", &self.unsent.len())
            .field("unacked", &self.unacked.len())
            .finish_non_exhaustive()
    }
}

impl FeedClient {
    /// A client that will (re)connect through `dialer`.
    pub fn new(dialer: Box<dyn Dialer>, config: ClientConfig) -> Self {
        let seed = config.backoff.seed | 1;
        FeedClient {
            dialer,
            config,
            session: 0,
            next_seq: 0,
            handled_up_to: 0,
            unsent: VecDeque::new(),
            unacked: VecDeque::new(),
            shed_seqs: HashSet::new(),
            stats: ClientStats::default(),
            conn: None,
            attempts: 0,
            rng: seed,
            handshakes: 0,
            last_snapshot: None,
        }
    }

    /// The server-assigned session id (0 before the first handshake).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// What happened so far.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// The most recent snapshot push, with its degraded flag.
    pub fn last_snapshot(&self) -> Option<&(bool, Vec<(u32, i64)>)> {
        self.last_snapshot.as_ref()
    }

    /// Sequence numbers not yet terminal.
    pub fn outstanding(&self) -> usize {
        self.unsent.len() + self.unacked.len()
    }

    /// Queues one report for submission; assigns the next wire sequence
    /// number (starting at 1) and, when tracing is enabled, mints the
    /// report's causal trace id at the sampling rate. The id sticks to
    /// the report through reconnect replay, so every retransmit of the
    /// same sequence number carries the same trace.
    pub fn enqueue(&mut self, report: StampedUpdate) {
        self.next_seq += 1;
        self.stats.enqueued += 1;
        let trace = match &self.config.spans {
            Some(sink) => {
                let trace = sample_trace(
                    self.config.trace_seed,
                    self.next_seq,
                    self.config.trace_sample_every,
                );
                if trace != 0 {
                    sink.note_trace_sampled();
                }
                trace
            }
            None => 0,
        };
        self.unsent.push_back((self.next_seq, report, trace));
    }

    fn xorshift(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn backoff_delay(&mut self) -> Duration {
        let cfg = &self.config.backoff;
        let base_ms = u64::try_from(cfg.base.as_millis())
            .unwrap_or(u64::MAX)
            .max(1);
        let max_ms = u64::try_from(cfg.max.as_millis())
            .unwrap_or(u64::MAX)
            .max(1);
        let shift = self.attempts.min(16);
        let raw = base_ms.saturating_mul(1_u64 << shift).min(max_ms);
        let half = raw / 2;
        let jitter = if half == 0 {
            0
        } else {
            self.xorshift() % (half + 1)
        };
        Duration::from_millis(half + jitter)
    }

    /// Dials and completes the Hello/Ack handshake, replaying the unacked
    /// tail into the unsent queue.
    fn connect(&mut self, overall_deadline: Instant) -> Result<(), ClientError> {
        loop {
            if Instant::now() >= overall_deadline {
                return Err(ClientError::DeadlineExpired);
            }
            if self.attempts >= self.config.backoff.max_attempts {
                return Err(ClientError::RetriesExhausted);
            }
            if self.attempts > 0 || self.handshakes > 0 {
                std::thread::sleep(self.backoff_delay());
            }
            self.attempts += 1;
            let Ok(conn) = self.dialer.dial() else {
                continue;
            };
            let mut connection = Connection {
                conn,
                decoder: FrameDecoder::new(),
                writer: FrameWriter::new(),
            };
            connection.writer.push(&Message::Hello {
                resume_session: self.session,
            });
            if self.complete_handshake(&mut connection).is_ok() {
                // Anything written before the drop but past the server's
                // handled line must be resent on this connection.
                while let Some(entry) = self.unacked.pop_back() {
                    self.unsent.push_front(entry);
                }
                self.trim_terminal();
                self.conn = Some(connection);
                self.attempts = 0;
                self.handshakes += 1;
                if self.handshakes > 1 {
                    self.stats.reconnects += 1;
                }
                return Ok(());
            }
        }
    }

    fn complete_handshake(&mut self, connection: &mut Connection) -> Result<(), ()> {
        let deadline = Instant::now() + self.config.handshake_deadline;
        loop {
            if Instant::now() > deadline {
                return Err(());
            }
            if connection.writer.pending() > 0
                && connection.writer.flush_into(&mut connection.conn).is_err()
            {
                return Err(());
            }
            match connection.decoder.read_from(&mut connection.conn) {
                Ok(Message::Ack {
                    session,
                    handled_up_to,
                }) => {
                    self.session = session;
                    self.handled_up_to = self.handled_up_to.max(handled_up_to);
                    return Ok(());
                }
                // Sheds and snapshots may legitimately precede the
                // handshake ack if the server queued them; absorb them.
                Ok(Message::Shed { seq, reason }) => self.record_shed(seq, reason),
                Ok(Message::SnapshotPush { degraded, entries }) => {
                    self.stats.snapshots_received += 1;
                    self.last_snapshot = Some((degraded, entries));
                }
                Ok(Message::Bye { .. }) => return Err(()),
                Ok(_) => return Err(()),
                // A non-blocking socket reports `WouldBlock` at once; give
                // the core to the server threads that owe the `Ack` rather
                // than spinning on `read` until preempted.
                Err(e) if e.is_timeout() => std::thread::yield_now(),
                Err(_) => return Err(()),
            }
        }
    }

    fn record_shed(&mut self, seq: u64, reason: ShedReason) {
        if self.shed_seqs.insert(seq) {
            self.stats.sheds.push(ShedRecord { seq, reason });
        }
    }

    /// Drops terminal sequence numbers (covered by `handled_up_to`) from
    /// both queues, crediting `acked` for those never reported shed.
    fn trim_terminal(&mut self) {
        let line = self.handled_up_to;
        while self.unacked.front().is_some_and(|&(seq, ..)| seq <= line) {
            if let Some((seq, ..)) = self.unacked.pop_front() {
                if !self.shed_seqs.contains(&seq) {
                    self.stats.acked += 1;
                }
            }
        }
        while self.unsent.front().is_some_and(|&(seq, ..)| seq <= line) {
            if let Some((seq, ..)) = self.unsent.pop_front() {
                if !self.shed_seqs.contains(&seq) {
                    self.stats.acked += 1;
                }
            }
        }
    }

    /// One round of protocol I/O on the live connection. Returns false if
    /// the connection died.
    fn pump_io(&mut self) -> bool {
        let Some(mut connection) = self.conn.take() else {
            return false;
        };
        // Write as many fresh reports as the in-flight window allows.
        // Traced reports remember when they were pushed so the client-send
        // span can close once the flush actually puts the bytes on the
        // wire. A replay re-records the same deterministic span id its
        // first transmission produced — the tree never forks.
        let mut traced_pushes: Vec<(u64, u64)> = Vec::new();
        while self.unacked.len() < self.config.max_in_flight {
            let Some((seq, report, trace)) = self.unsent.pop_front() else {
                break;
            };
            if trace != 0 {
                traced_pushes.push((trace, now_nanos()));
            }
            connection.writer.push(&Message::Report {
                seq,
                unit_seq: report.seq,
                ts: report.ts,
                unit: report.update.unit.0,
                x: report.update.new.x,
                y: report.update.new.y,
                trace,
            });
            self.stats.frames_sent += 1;
            self.unacked.push_back((seq, report, trace));
        }
        let flush_ok = connection.writer.pending() == 0
            || connection.writer.flush_into(&mut connection.conn).is_ok();
        // Record the spans even when the flush dies mid-frame: the frame
        // may still have reached the server (the resume handshake would
        // then ack it without a re-push, and the span would be lost for
        // good). If the report IS replayed, the deterministic span id
        // makes the re-record collapse into this one.
        if let Some(sink) = &self.config.spans {
            let flushed = now_nanos();
            for (trace, pushed) in traced_pushes {
                sink.record_stage(trace, Stage::ClientSend, 0, pushed, flushed, true);
            }
        }
        if !flush_ok {
            return false;
        }
        // Read whatever the server has for us (one frame per call keeps
        // the loop responsive; timeouts are the idle path).
        match connection.decoder.read_from(&mut connection.conn) {
            Ok(Message::Ack { handled_up_to, .. }) => {
                self.handled_up_to = self.handled_up_to.max(handled_up_to);
                self.trim_terminal();
            }
            Ok(Message::Shed { seq, reason }) => self.record_shed(seq, reason),
            Ok(Message::SnapshotPush { degraded, entries }) => {
                self.stats.snapshots_received += 1;
                self.last_snapshot = Some((degraded, entries));
            }
            Ok(Message::Bye { .. }) => return false,
            Ok(_) => return false,
            Err(e) if e.is_timeout() => {}
            Err(_) => return false,
        }
        self.conn = Some(connection);
        true
    }

    /// One connect-if-needed plus one I/O round. Paced feeders use this
    /// to interleave enqueues with protocol work instead of blocking in
    /// [`FeedClient::drive`].
    pub fn step(&mut self, connect_budget: Duration) -> Result<(), ClientError> {
        self.trim_terminal();
        if self.conn.is_none() {
            self.connect(Instant::now() + connect_budget)?;
        }
        if !self.pump_io() {
            self.conn = None;
        }
        Ok(())
    }

    /// Drives submission until every enqueued report is terminal (acked
    /// or shed), reconnecting with backoff as needed.
    pub fn drive(&mut self, overall: Duration) -> Result<(), ClientError> {
        let deadline = Instant::now() + overall;
        loop {
            self.trim_terminal();
            if self.outstanding() == 0 {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(ClientError::DeadlineExpired);
            }
            if self.conn.is_none() {
                self.connect(deadline)?;
            }
            if !self.pump_io() {
                self.conn = None;
            }
        }
    }

    /// Keeps the connection alive for `duration`, absorbing snapshot
    /// pushes and acks. Returns snapshots received during the window.
    pub fn listen(&mut self, duration: Duration) -> Result<u64, ClientError> {
        let deadline = Instant::now() + duration;
        let before = self.stats.snapshots_received;
        while Instant::now() < deadline {
            if self.conn.is_none() {
                self.connect(deadline)?;
            }
            if !self.pump_io() {
                self.conn = None;
            }
        }
        Ok(self.stats.snapshots_received - before)
    }

    /// Polite goodbye; returns the final accounting.
    pub fn finish(mut self) -> ClientStats {
        if let Some(mut connection) = self.conn.take() {
            connection.writer.push(&Message::Bye {
                reason: ByeReason::Done,
            });
            let _ = connection.writer.flush_into(&mut connection.conn);
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::stamp_stream;
    use crate::net::overload::CountingSink;
    use crate::net::{IngestServer, NetServerConfig};
    use crate::types::{LocationUpdate, UnitId};
    use ctup_spatial::Point;

    /// Dials the way a polling feeder does: the socket is non-blocking, so
    /// every read that finds nothing returns `WouldBlock` at once.
    struct NonBlockingDialer(SocketAddr);

    impl Dialer for NonBlockingDialer {
        fn dial(&mut self) -> std::io::Result<Box<dyn Conn>> {
            let stream = TcpStream::connect_timeout(&self.0, Duration::from_secs(2))?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            Ok(Box::new(stream))
        }
    }

    #[test]
    fn a_non_blocking_client_handshakes_and_is_acked() {
        let sink = Arc::new(CountingSink::default());
        let server = IngestServer::spawn("127.0.0.1:0", NetServerConfig::default(), sink.clone())
            .expect("bind a loopback port");
        let mut client = FeedClient::new(
            Box::new(NonBlockingDialer(server.local_addr())),
            ClientConfig::default(),
        );
        client.step(Duration::from_secs(10)).expect("handshake");
        assert_ne!(client.session(), 0, "the handshake assigns a session");
        let feed = stamp_stream((0..64u32).map(|i| LocationUpdate {
            unit: UnitId(i % 4),
            new: Point::new(f64::from(i) / 64.0, 0.5),
        }));
        for report in feed {
            client.enqueue(report);
        }
        client
            .drive(Duration::from_secs(30))
            .expect("loopback feed");
        let stats = client.finish();
        assert_eq!(stats.acked, 64);
        assert!(stats.sheds.is_empty());
        let net = server.shutdown();
        assert_eq!(net.reports_accepted, 64);
        assert_eq!(sink.accepted(), 64);
    }
}
