//! Length-prefixed binary wire protocol of the ingest front door.
//!
//! Every frame is `[u32 payload_len LE][u8 version][u8 msg_type][payload]`.
//! The payload length counts the payload only (not the 6-byte header) and
//! is capped at [`MAX_FRAME_LEN`], so a decoder never allocates more than
//! 64 KiB per frame no matter what a peer sends. The codec is hand-rolled
//! over little-endian fixed-width fields: no varints, no reflection, no
//! dependencies — a frame is decodable with a hex dump and this file.
//!
//! Message flow:
//!
//! ```text
//! client                             server
//!   | -- Hello{resume_session} ------> |   open or resume a session
//!   | <------ Ack{session, handled} -- |   handshake: ids + replay line
//!   | -- Report{seq, ...} ----------> |   sequenced unit positions
//!   | <------ Ack{session, handled} -- |   cumulative: all <= handled done
//!   | <-------- Shed{seq, reason} --- |   terminal refusal, typed reason
//!   | <-- SnapshotPush{degraded,topk}- |   last-good result, pushed
//!   | -- Bye{reason} ---------------> |   orderly close (either side)
//! ```
//!
//! [`FrameDecoder`] and [`FrameWriter`] keep per-connection partial state
//! so short reads and short writes (timeouts, slow peers) never desync a
//! stream: a connection can deliver a frame one byte at a time and the
//! decoder picks up exactly where it stopped.

use super::stats::ShedReason;
use std::io::{Read, Write};

/// Protocol version carried in every frame header; a frame at any other
/// version is refused. Version 2 added a trailing 64-bit causal trace id
/// to [`Message::Report`].
pub const PROTOCOL_VERSION: u8 = 2;
/// Size of the fixed frame header: payload length, version, message type.
pub const HEADER_LEN: usize = 6;
/// Hard cap on a frame's payload length; larger headers are a protocol
/// error and the connection is closed without allocating the claimed size.
pub const MAX_FRAME_LEN: usize = 64 * 1024;
/// Hard cap on entries in a [`Message::SnapshotPush`]; encoding truncates
/// to this, decoding rejects counts beyond it.
pub const MAX_TOPK_ENTRIES: usize = 4096;
/// Read iterations [`FrameDecoder::read_from`] consumes per call before
/// yielding with a `WouldBlock`, so callers can run their frame-deadline
/// checks even against a peer that trickles bytes fast enough to never
/// hit the socket read timeout.
pub const READS_PER_CALL: usize = 8;

/// Message type tags (the `msg_type` header byte).
mod tag {
    pub const HELLO: u8 = 1;
    pub const REPORT: u8 = 2;
    pub const ACK: u8 = 3;
    pub const SHED: u8 = 4;
    pub const SNAPSHOT_PUSH: u8 = 5;
    pub const BYE: u8 = 6;
}

/// Why a connection is being closed, carried by [`Message::Bye`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByeReason {
    /// The client finished its feed and is closing cleanly.
    Done,
    /// The server is shutting down.
    Shutdown,
    /// The server evicted the connection (slow reads or writes).
    Evicted,
    /// The peer violated the protocol (malformed frame, bad handshake).
    ProtocolError,
    /// The session registry is full; try again later.
    ServerFull,
}

impl ByeReason {
    /// Wire encoding of the reason.
    pub fn code(self) -> u8 {
        match self {
            ByeReason::Done => 0,
            ByeReason::Shutdown => 1,
            ByeReason::Evicted => 2,
            ByeReason::ProtocolError => 3,
            ByeReason::ServerFull => 4,
        }
    }

    /// Decodes a wire code; `None` for codes this version does not know.
    pub fn from_code(code: u8) -> Option<ByeReason> {
        match code {
            0 => Some(ByeReason::Done),
            1 => Some(ByeReason::Shutdown),
            2 => Some(ByeReason::Evicted),
            3 => Some(ByeReason::ProtocolError),
            4 => Some(ByeReason::ServerFull),
            _ => None,
        }
    }

    /// Stable label for logs and client reports.
    pub fn label(self) -> &'static str {
        match self {
            ByeReason::Done => "done",
            ByeReason::Shutdown => "shutdown",
            ByeReason::Evicted => "evicted",
            ByeReason::ProtocolError => "protocol-error",
            ByeReason::ServerFull => "server-full",
        }
    }
}

/// One protocol message, the unit of framing.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client handshake. `resume_session = 0` requests a fresh session;
    /// a nonzero id asks to resume that session's sequence space.
    Hello {
        /// Session id to resume, or 0 for a new session.
        resume_session: u64,
    },
    /// One sequenced unit position report.
    Report {
        /// Per-session wire sequence number, starting at 1, gapless.
        seq: u64,
        /// Per-unit ingest sequence number (the gate's dedup key).
        unit_seq: u64,
        /// Client timestamp (gate liveness clock).
        ts: u64,
        /// Reporting unit id.
        unit: u32,
        /// New x coordinate.
        x: f64,
        /// New y coordinate.
        y: f64,
        /// Causal trace id threaded through the pipeline (0 = untraced).
        trace: u64,
    },
    /// Cumulative progress: every wire seq `<= handled_up_to` is terminal
    /// (accepted or shed) and must not be retransmitted. The handshake
    /// `Ack` also tells the client its session id.
    Ack {
        /// Session id the ack belongs to.
        session: u64,
        /// Highest wire sequence number with all predecessors terminal.
        handled_up_to: u64,
    },
    /// Terminal refusal of one report, with a typed reason.
    Shed {
        /// Wire sequence number of the refused report.
        seq: u64,
        /// Why the report was refused.
        reason: ShedReason,
    },
    /// Server-pushed top-k snapshot (the last-good result in degraded
    /// mode), entries as `(place_id, safety)` in result order.
    SnapshotPush {
        /// Whether the server is currently degraded.
        degraded: bool,
        /// Top-k entries, capped at [`MAX_TOPK_ENTRIES`].
        entries: Vec<(u32, i64)>,
    },
    /// Orderly close notification.
    Bye {
        /// Why the connection is closing.
        reason: ByeReason,
    },
}

/// A codec violation. Every variant closes the connection; none of them
/// can be caused by a short read (partial frames are handled by the
/// decoder's state machine, not by erroring).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Header claimed a payload longer than [`MAX_FRAME_LEN`].
    FrameTooLong {
        /// The claimed payload length.
        claimed: u64,
    },
    /// Header carried a protocol version this build does not speak.
    UnsupportedVersion(u8),
    /// Header carried an unknown message type tag.
    UnknownType(u8),
    /// Payload ended before the message's fixed fields.
    Truncated,
    /// Payload continued past the message's fields.
    TrailingBytes,
    /// A reason code (shed or bye) was not recognized.
    UnknownReason(u8),
    /// A `SnapshotPush` claimed more than [`MAX_TOPK_ENTRIES`] entries.
    TooManyEntries(u64),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLong { claimed } => {
                write!(
                    f,
                    "frame payload of {claimed} bytes exceeds {MAX_FRAME_LEN}"
                )
            }
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (speak {PROTOCOL_VERSION})"
                )
            }
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::Truncated => f.write_str("payload shorter than the message's fields"),
            WireError::TrailingBytes => f.write_str("payload longer than the message's fields"),
            WireError::UnknownReason(c) => write!(f, "unknown reason code {c}"),
            WireError::TooManyEntries(n) => {
                write!(f, "snapshot claims {n} entries, cap is {MAX_TOPK_ENTRIES}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian payload reader with bounds-checked fixed-width fields.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        let arr: [u8; 4] = b.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(arr))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        let b = self.take(8)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| WireError::Truncated)?;
        Ok(i64::from_le_bytes(arr))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

impl Message {
    /// The header tag byte of this message.
    fn tag(&self) -> u8 {
        match self {
            Message::Hello { .. } => tag::HELLO,
            Message::Report { .. } => tag::REPORT,
            Message::Ack { .. } => tag::ACK,
            Message::Shed { .. } => tag::SHED,
            Message::SnapshotPush { .. } => tag::SNAPSHOT_PUSH,
            Message::Bye { .. } => tag::BYE,
        }
    }

    /// Appends one complete frame (header + payload) to `out`.
    /// `SnapshotPush` entries are truncated to [`MAX_TOPK_ENTRIES`], so
    /// every encoded frame respects [`MAX_FRAME_LEN`] by construction.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut payload: Vec<u8> = Vec::with_capacity(64);
        match self {
            Message::Hello { resume_session } => put_u64(&mut payload, *resume_session),
            Message::Report {
                seq,
                unit_seq,
                ts,
                unit,
                x,
                y,
                trace,
            } => {
                put_u64(&mut payload, *seq);
                put_u64(&mut payload, *unit_seq);
                put_u64(&mut payload, *ts);
                put_u32(&mut payload, *unit);
                put_u64(&mut payload, x.to_bits());
                put_u64(&mut payload, y.to_bits());
                put_u64(&mut payload, *trace);
            }
            Message::Ack {
                session,
                handled_up_to,
            } => {
                put_u64(&mut payload, *session);
                put_u64(&mut payload, *handled_up_to);
            }
            Message::Shed { seq, reason } => {
                put_u64(&mut payload, *seq);
                payload.push(reason.code());
            }
            Message::SnapshotPush { degraded, entries } => {
                payload.push(u8::from(*degraded));
                let n = entries.len().min(MAX_TOPK_ENTRIES);
                put_u32(&mut payload, ctup_spatial::convert::id32(n));
                for (place, safety) in entries.iter().take(n) {
                    put_u32(&mut payload, *place);
                    put_i64(&mut payload, *safety);
                }
            }
            Message::Bye { reason } => payload.push(reason.code()),
        }
        // Payloads are bounded by construction: the largest is a capped
        // SnapshotPush at 5 + 12 * MAX_TOPK_ENTRIES < MAX_FRAME_LEN.
        let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
        put_u32(out, len);
        out.push(PROTOCOL_VERSION);
        out.push(self.tag());
        out.extend_from_slice(&payload);
    }

    /// Decodes a payload given its validated header fields. A version
    /// other than [`PROTOCOL_VERSION`] is refused before the payload is
    /// looked at.
    pub fn decode(version: u8, msg_type: u8, payload: &[u8]) -> Result<Message, WireError> {
        if version != PROTOCOL_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let mut cur = Cursor::new(payload);
        let msg = match msg_type {
            tag::HELLO => Message::Hello {
                resume_session: cur.u64()?,
            },
            tag::REPORT => Message::Report {
                seq: cur.u64()?,
                unit_seq: cur.u64()?,
                ts: cur.u64()?,
                unit: cur.u32()?,
                x: cur.f64()?,
                y: cur.f64()?,
                trace: cur.u64()?,
            },
            tag::ACK => Message::Ack {
                session: cur.u64()?,
                handled_up_to: cur.u64()?,
            },
            tag::SHED => Message::Shed {
                seq: cur.u64()?,
                reason: {
                    let code = cur.u8()?;
                    ShedReason::from_code(code).ok_or(WireError::UnknownReason(code))?
                },
            },
            tag::SNAPSHOT_PUSH => {
                let degraded = cur.u8()? != 0;
                let count = cur.u32()?;
                let count_usize = usize::try_from(count)
                    .map_err(|_| WireError::TooManyEntries(u64::from(count)))?;
                if count_usize > MAX_TOPK_ENTRIES {
                    return Err(WireError::TooManyEntries(u64::from(count)));
                }
                // Allocation is capped: count was validated against both the
                // entry cap and (implicitly) the frame length via `finish`.
                let mut entries = Vec::with_capacity(count_usize);
                for _ in 0..count_usize {
                    let place = cur.u32()?;
                    let safety = cur.i64()?;
                    entries.push((place, safety));
                }
                Message::SnapshotPush { degraded, entries }
            }
            tag::BYE => Message::Bye {
                reason: {
                    let code = cur.u8()?;
                    ByeReason::from_code(code).ok_or(WireError::UnknownReason(code))?
                },
            },
            other => return Err(WireError::UnknownType(other)),
        };
        cur.finish()?;
        Ok(msg)
    }
}

/// Errors surfaced by [`FrameDecoder::read_from`].
#[derive(Debug)]
pub enum DecodeError {
    /// The underlying read failed. Timeouts (`WouldBlock` / `TimedOut`)
    /// are reported here too; the decoder's partial state stays valid and
    /// the caller may retry.
    Io(std::io::Error),
    /// The peer sent a malformed frame; the stream is no longer trusted.
    Wire(WireError),
    /// The peer closed the stream. `mid_frame` is true when the close tore
    /// a partially delivered frame.
    Closed {
        /// Whether the stream died with a frame in flight.
        mid_frame: bool,
    },
}

impl DecodeError {
    /// Whether this error is a read timeout (partial state stays valid).
    pub fn is_timeout(&self) -> bool {
        match self {
            DecodeError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Io(e) => write!(f, "read failed: {e}"),
            DecodeError::Wire(e) => write!(f, "malformed frame: {e}"),
            DecodeError::Closed { mid_frame: true } => f.write_str("peer closed mid-frame"),
            DecodeError::Closed { mid_frame: false } => f.write_str("peer closed"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Incremental frame decoder: survives short reads and read timeouts
/// without losing its place in the stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    header: [u8; HEADER_LEN],
    header_fill: usize,
    payload: Vec<u8>,
    payload_fill: usize,
    in_payload: bool,
}

impl FrameDecoder {
    /// A decoder at a frame boundary.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Whether a frame is partially buffered (used to classify an EOF or
    /// an idle timeout as a torn frame vs. a quiet connection).
    pub fn mid_frame(&self) -> bool {
        self.in_payload || self.header_fill > 0
    }

    /// Reads from `r` until one full frame decodes, the read would block,
    /// or the stream ends. Partial progress is kept across calls, so a
    /// timeout simply means "call again later".
    ///
    /// At most [`READS_PER_CALL`] successful reads are consumed per call;
    /// if the frame is still incomplete after that the call returns a
    /// `WouldBlock` timeout. Without the cap, a peer trickling one byte
    /// per read-timeout window would keep this loop "making progress"
    /// forever and starve the caller's frame-deadline check — the exact
    /// slowloris the deadline exists to evict. Bulk senders are unaffected:
    /// a kernel-buffered frame completes in one or two reads.
    pub fn read_from(&mut self, r: &mut impl Read) -> Result<Message, DecodeError> {
        let mut reads = 0usize;
        loop {
            if reads >= READS_PER_CALL {
                return Err(DecodeError::Io(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "frame incomplete after read budget",
                )));
            }
            reads += 1;
            if !self.in_payload {
                // Accumulate the fixed header.
                let n = r
                    .read(&mut self.header[self.header_fill..])
                    .map_err(DecodeError::Io)?;
                if n == 0 {
                    return Err(DecodeError::Closed {
                        mid_frame: self.header_fill > 0,
                    });
                }
                self.header_fill += n;
                if self.header_fill < HEADER_LEN {
                    continue;
                }
                let len_bytes: [u8; 4] = self.header[..4]
                    .try_into()
                    .map_err(|_| DecodeError::Wire(WireError::Truncated))?;
                let claimed = u32::from_le_bytes(len_bytes);
                let len = usize::try_from(claimed).unwrap_or(usize::MAX);
                if len > MAX_FRAME_LEN {
                    return Err(DecodeError::Wire(WireError::FrameTooLong {
                        claimed: u64::from(claimed),
                    }));
                }
                // The allocation is capped by the MAX_FRAME_LEN check above.
                self.payload.clear();
                self.payload.resize(len, 0);
                self.payload_fill = 0;
                self.in_payload = true;
            }
            if self.payload_fill < self.payload.len() {
                let n = r
                    .read(&mut self.payload[self.payload_fill..])
                    .map_err(DecodeError::Io)?;
                if n == 0 {
                    return Err(DecodeError::Closed { mid_frame: true });
                }
                self.payload_fill += n;
                if self.payload_fill < self.payload.len() {
                    continue;
                }
            }
            // Full frame buffered: decode and reset to the boundary.
            let version = self.header[4];
            let msg_type = self.header[5];
            let msg = Message::decode(version, msg_type, &self.payload);
            self.header_fill = 0;
            self.payload_fill = 0;
            self.in_payload = false;
            self.payload.clear();
            return msg.map_err(DecodeError::Wire);
        }
    }
}

/// Buffered frame writer: survives short writes and write timeouts, and
/// exposes its backlog so the server can evict peers that stop draining.
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameWriter {
    /// An empty writer.
    pub fn new() -> Self {
        FrameWriter::default()
    }

    /// Queues one message for transmission.
    pub fn push(&mut self, msg: &Message) {
        msg.encode(&mut self.buf);
    }

    /// Bytes queued but not yet written.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Writes as much of the backlog as the peer accepts. Returns `true`
    /// when the backlog fully drained; `false` on a write timeout (retry
    /// later). Hard I/O errors propagate.
    pub fn flush_into(&mut self, w: &mut impl Write) -> std::io::Result<bool> {
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer accepts no bytes",
                    ))
                }
                Ok(n) => self.pos += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(false)
                }
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        assert!(bytes.len() >= HEADER_LEN);
        let mut decoder = FrameDecoder::new();
        let mut cursor = std::io::Cursor::new(bytes.clone());
        let got = decoder.read_from(&mut cursor).expect("decode");
        assert_eq!(got, msg);
        assert!(!decoder.mid_frame());
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello { resume_session: 0 },
            Message::Hello {
                resume_session: u64::MAX,
            },
            Message::Report {
                seq: 1,
                unit_seq: 42,
                ts: 7,
                unit: 3,
                x: 0.25,
                y: -1.5,
                trace: 0,
            },
            Message::Report {
                seq: u64::MAX,
                unit_seq: 0,
                ts: u64::MAX,
                unit: u32::MAX,
                x: f64::NAN,
                y: f64::INFINITY,
                trace: u64::MAX,
            },
            Message::Ack {
                session: 9,
                handled_up_to: 1_000_000,
            },
            Message::Shed {
                seq: 77,
                reason: ShedReason::QueueFull,
            },
            Message::Shed {
                seq: 78,
                reason: ShedReason::EngineDegraded,
            },
            Message::SnapshotPush {
                degraded: true,
                entries: vec![(1, -3), (2, 0), (u32::MAX, i64::MIN)],
            },
            Message::SnapshotPush {
                degraded: false,
                entries: Vec::new(),
            },
            Message::Bye {
                reason: ByeReason::Done,
            },
            Message::Bye {
                reason: ByeReason::ServerFull,
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in sample_messages() {
            // NaN != NaN would fail the equality; encode NaN-free samples
            // except the explicit bit-pattern check below.
            if let Message::Report { x, .. } = msg {
                if x.is_nan() {
                    continue;
                }
            }
            roundtrip(msg);
        }
    }

    #[test]
    fn nan_coordinates_survive_bit_exact() {
        let msg = Message::Report {
            seq: 1,
            unit_seq: 1,
            ts: 1,
            unit: 0,
            x: f64::NAN,
            y: f64::NEG_INFINITY,
            trace: 7,
        };
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        let mut decoder = FrameDecoder::new();
        let got = decoder
            .read_from(&mut std::io::Cursor::new(bytes))
            .expect("decode");
        match got {
            Message::Report { x, y, .. } => {
                assert!(x.is_nan(), "the codec must not launder NaN");
                assert!(y.is_infinite() && y < 0.0);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn decoding_survives_one_byte_at_a_time() {
        let mut bytes = Vec::new();
        for msg in sample_messages() {
            if let Message::Report { x, .. } = msg {
                if x.is_nan() {
                    continue;
                }
            }
            msg.encode(&mut bytes);
        }
        struct OneByte<'a> {
            data: &'a [u8],
            pos: usize,
        }
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.data.len() || buf.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut reader = OneByte {
            data: &bytes,
            pos: 0,
        };
        let mut decoder = FrameDecoder::new();
        let mut decoded = 0usize;
        loop {
            match decoder.read_from(&mut reader) {
                Ok(_) => decoded += 1,
                // The per-call read budget yields mid-frame; call again,
                // exactly as a connection handler's poll loop does.
                Err(e) if e.is_timeout() => continue,
                Err(DecodeError::Closed { mid_frame }) => {
                    assert!(!mid_frame, "stream ends at a frame boundary");
                    break;
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        let expected = sample_messages()
            .iter()
            .filter(|m| !matches!(m, Message::Report { x, .. } if x.is_nan()))
            .count();
        assert_eq!(decoded, expected);
    }

    #[test]
    fn oversized_header_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, u32::MAX);
        bytes.push(PROTOCOL_VERSION);
        bytes.push(tag::HELLO);
        let mut decoder = FrameDecoder::new();
        match decoder.read_from(&mut std::io::Cursor::new(bytes)) {
            Err(DecodeError::Wire(WireError::FrameTooLong { claimed })) => {
                assert_eq!(claimed, u64::from(u32::MAX));
            }
            other => panic!("expected FrameTooLong, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_and_unknown_tag_are_rejected() {
        let mut bytes = Vec::new();
        Message::Hello { resume_session: 1 }.encode(&mut bytes);
        bytes[4] = 99; // version
        let mut decoder = FrameDecoder::new();
        assert!(matches!(
            decoder.read_from(&mut std::io::Cursor::new(bytes.clone())),
            Err(DecodeError::Wire(WireError::UnsupportedVersion(99)))
        ));
        // Version 1 (reports without a trace id) is no longer spoken: the
        // header is refused whatever follows it, payload unread.
        bytes[4] = 1;
        let mut decoder = FrameDecoder::new();
        assert!(matches!(
            decoder.read_from(&mut std::io::Cursor::new(bytes.clone())),
            Err(DecodeError::Wire(WireError::UnsupportedVersion(1)))
        ));
        assert_eq!(
            Message::decode(1, tag::REPORT, &[]),
            Err(WireError::UnsupportedVersion(1))
        );
        bytes[4] = PROTOCOL_VERSION;
        // 7..=10 once carried replication frames; unassigned now, they
        // decode as unknown like any other tag this build does not speak.
        for unknown in [0u8, 7, 8, 9, 10, 200] {
            bytes[5] = unknown;
            let mut decoder = FrameDecoder::new();
            assert!(
                matches!(
                    decoder.read_from(&mut std::io::Cursor::new(bytes.clone())),
                    Err(DecodeError::Wire(WireError::UnknownType(t))) if t == unknown
                ),
                "tag {unknown} must be unknown"
            );
        }
    }

    #[test]
    fn truncated_and_padded_payloads_are_rejected() {
        // Claim an 7-byte Hello payload (needs 8).
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 7);
        bytes.push(PROTOCOL_VERSION);
        bytes.push(tag::HELLO);
        bytes.extend_from_slice(&[0u8; 7]);
        let mut decoder = FrameDecoder::new();
        assert!(matches!(
            decoder.read_from(&mut std::io::Cursor::new(bytes)),
            Err(DecodeError::Wire(WireError::Truncated))
        ));
        // Claim a 9-byte Hello payload (one trailing byte).
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 9);
        bytes.push(PROTOCOL_VERSION);
        bytes.push(tag::HELLO);
        bytes.extend_from_slice(&[0u8; 9]);
        let mut decoder = FrameDecoder::new();
        assert!(matches!(
            decoder.read_from(&mut std::io::Cursor::new(bytes)),
            Err(DecodeError::Wire(WireError::TrailingBytes))
        ));
    }

    #[test]
    fn snapshot_push_entry_count_is_capped_both_ways() {
        // Decoding a count over the cap fails before allocating it.
        let mut payload = Vec::new();
        payload.push(0u8);
        put_u32(&mut payload, 1_000_000);
        let mut bytes = Vec::new();
        put_u32(&mut bytes, ctup_spatial::convert::id32(payload.len()));
        bytes.push(PROTOCOL_VERSION);
        bytes.push(tag::SNAPSHOT_PUSH);
        bytes.extend_from_slice(&payload);
        let mut decoder = FrameDecoder::new();
        assert!(matches!(
            decoder.read_from(&mut std::io::Cursor::new(bytes)),
            Err(DecodeError::Wire(WireError::TooManyEntries(1_000_000)))
        ));
        // Encoding truncates to the cap and still round-trips.
        let big = Message::SnapshotPush {
            degraded: false,
            entries: (0..2 * MAX_TOPK_ENTRIES)
                .map(|i| (ctup_spatial::convert::id32(i), 0i64))
                .collect(),
        };
        let mut bytes = Vec::new();
        big.encode(&mut bytes);
        assert!(bytes.len() <= HEADER_LEN + MAX_FRAME_LEN);
        let mut decoder = FrameDecoder::new();
        match decoder
            .read_from(&mut std::io::Cursor::new(bytes))
            .expect("decode")
        {
            Message::SnapshotPush { entries, .. } => assert_eq!(entries.len(), MAX_TOPK_ENTRIES),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn unknown_reason_codes_are_rejected() {
        let mut bytes = Vec::new();
        Message::Shed {
            seq: 1,
            reason: ShedReason::QueueFull,
        }
        .encode(&mut bytes);
        let last = bytes.len() - 1;
        bytes[last] = 42;
        let mut decoder = FrameDecoder::new();
        assert!(matches!(
            decoder.read_from(&mut std::io::Cursor::new(bytes)),
            Err(DecodeError::Wire(WireError::UnknownReason(42)))
        ));
    }

    #[test]
    fn garbage_streams_error_but_never_panic() {
        // Deterministic pseudo-fuzz: feed the decoder random byte soup and
        // random mutations of valid frames; it must either decode or
        // return a typed error, never panic or over-allocate.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let len = usize::try_from(next() % 512).unwrap_or(0);
            let mut bytes: Vec<u8> = Vec::with_capacity(len);
            for _ in 0..len {
                bytes.push(u8::try_from(next() % 256).unwrap_or(0));
            }
            let mut decoder = FrameDecoder::new();
            let mut cursor = std::io::Cursor::new(bytes);
            for _ in 0..64 {
                match decoder.read_from(&mut cursor) {
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }
        // Mutated valid frames.
        for _ in 0..200 {
            let mut bytes = Vec::new();
            Message::Report {
                seq: next(),
                unit_seq: next(),
                ts: next(),
                unit: 5,
                x: 0.5,
                y: 0.5,
                trace: next(),
            }
            .encode(&mut bytes);
            let idx = usize::try_from(next()).unwrap_or(0) % bytes.len();
            bytes[idx] ^= u8::try_from(next() % 255).unwrap_or(1).max(1);
            let mut decoder = FrameDecoder::new();
            let _ = decoder.read_from(&mut std::io::Cursor::new(bytes));
        }
    }

    #[test]
    fn frame_writer_survives_short_writes() {
        struct Dribble {
            out: Vec<u8>,
            budget: usize,
        }
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.budget == 0 {
                    return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "later"));
                }
                let n = buf.len().min(3).min(self.budget);
                self.out.extend_from_slice(&buf[..n]);
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut writer = FrameWriter::new();
        let msg = Message::Ack {
            session: 3,
            handled_up_to: 10,
        };
        writer.push(&msg);
        let total = writer.pending();
        let mut sink = Dribble {
            out: Vec::new(),
            budget: 5,
        };
        assert!(!writer.flush_into(&mut sink).expect("partial flush"));
        assert_eq!(writer.pending(), total - 5);
        sink.budget = usize::MAX;
        assert!(writer.flush_into(&mut sink).expect("final flush"));
        assert_eq!(writer.pending(), 0);
        let mut decoder = FrameDecoder::new();
        let got = decoder
            .read_from(&mut std::io::Cursor::new(sink.out))
            .expect("decode");
        assert_eq!(got, msg);
    }
}
