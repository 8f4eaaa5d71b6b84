//! Property tests of the wire frame codec: random messages must
//! round-trip bit-exactly through the incremental decoder (whole,
//! truncated-and-resumed, or trickled byte by byte), and hostile headers
//! — oversized frames, foreign protocol versions, unknown tags — must
//! come back as typed `WireError`s, never panics or unbounded
//! allocations.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

#[path = "support/prop.rs"]
mod prop;

use ctup::core::net::wire::{
    ByeReason, DecodeError, FrameDecoder, Message, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use ctup::core::net::ShedReason;
use prop::{check, Gen};
use std::io::Read;

fn coord(g: &mut Gen) -> f64 {
    // Finite coordinates only: NaN breaks the equality the round-trip
    // asserts; bit-exact NaN transport is pinned by the unit tests.
    match g.gen_range(0..4) {
        0 => g.gen_range_f64(-1.0e6..1.0e6),
        1 => 0.0,
        2 => -0.0,
        _ => f64::MIN_POSITIVE,
    }
}

fn u32_any(g: &mut Gen) -> u32 {
    g.next_u64() as u32
}

/// Every message variant.
fn message(g: &mut Gen) -> Message {
    match g.gen_range(0..6) {
        0 => Message::Hello {
            resume_session: g.next_u64(),
        },
        1 => Message::Report {
            seq: g.next_u64(),
            unit_seq: g.next_u64(),
            ts: g.next_u64(),
            unit: u32_any(g),
            x: coord(g),
            y: coord(g),
            trace: g.next_u64(),
        },
        2 => Message::Ack {
            session: g.next_u64(),
            handled_up_to: g.next_u64(),
        },
        3 => Message::Shed {
            seq: g.next_u64(),
            reason: [
                ShedReason::QueueFull,
                ShedReason::DeadlineExceeded,
                ShedReason::SessionQuota,
                ShedReason::EngineDegraded,
            ][g.gen_range(0..4)],
        },
        4 => Message::SnapshotPush {
            degraded: g.gen_bool(0.5),
            entries: g.vec(0..=15, |g| (u32_any(g), g.next_u64() as i64)),
        },
        _ => Message::Bye {
            reason: [
                ByeReason::Done,
                ByeReason::ServerFull,
                ByeReason::ProtocolError,
                ByeReason::Shutdown,
            ][g.gen_range(0..4)],
        },
    }
}

/// A reader that hands out the stream in caller-chosen slice sizes, so
/// the decoder's partial-frame state machine is exercised at arbitrary
/// split points.
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    next_size: usize,
}

impl Chunked {
    /// The whole of `data` in one read.
    fn whole(data: Vec<u8>) -> Self {
        Chunked {
            data,
            pos: 0,
            sizes: vec![usize::MAX],
            next_size: 0,
        }
    }
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let step = self.sizes[self.next_size % self.sizes.len()].max(1);
        self.next_size += 1;
        let n = step.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Drives the decoder to the next message, riding through the
/// read-budget timeouts a trickling reader provokes.
fn decode_next(decoder: &mut FrameDecoder, reader: &mut Chunked) -> Result<Message, DecodeError> {
    loop {
        match decoder.read_from(reader) {
            Err(e) if e.is_timeout() => {}
            other => return other,
        }
    }
}

fn decode_one(bytes: Vec<u8>) -> Result<Message, DecodeError> {
    decode_next(&mut FrameDecoder::new(), &mut Chunked::whole(bytes))
}

fn encoded(msg: &Message) -> Vec<u8> {
    let mut bytes = Vec::new();
    msg.encode(&mut bytes);
    bytes
}

/// A stream of random messages delivered at random split points
/// round-trips exactly, in order.
#[test]
fn streams_round_trip_at_any_split() {
    check(
        "streams_round_trip_at_any_split",
        256,
        |g| (g.vec(1..=7, message), g.vec(1..=7, |g| g.gen_range(1..64))),
        |(msgs, sizes)| {
            let mut bytes = Vec::new();
            for msg in msgs {
                msg.encode(&mut bytes);
            }
            let mut reader = Chunked {
                data: bytes,
                pos: 0,
                sizes: sizes.clone(),
                next_size: 0,
            };
            let mut decoder = FrameDecoder::new();
            for expected in msgs {
                let got = decode_next(&mut decoder, &mut reader).expect("decode");
                assert_eq!(&got, expected);
            }
            match decode_next(&mut decoder, &mut reader) {
                Err(DecodeError::Closed { mid_frame }) => assert!(!mid_frame),
                other => panic!("expected clean close: {other:?}"),
            }
        },
    );
}

/// Cutting a frame anywhere is reported as a closed stream — torn
/// exactly when bytes of the frame had already arrived — never a
/// panic or a phantom message.
#[test]
fn truncation_is_a_typed_close() {
    check(
        "truncation_is_a_typed_close",
        256,
        |g| (message(g), g.next_u64()),
        |(msg, cut_sel)| {
            let mut bytes = encoded(msg);
            let cut = (cut_sel % bytes.len() as u64) as usize; // always a strict prefix
            bytes.truncate(cut);
            match decode_one(bytes) {
                Err(DecodeError::Closed { mid_frame }) => assert_eq!(mid_frame, cut > 0),
                other => panic!("expected closed: {other:?}"),
            }
        },
    );
}

/// A header claiming a payload beyond [`MAX_FRAME_LEN`] is rejected
/// from the header alone — before any payload is read or buffered.
#[test]
fn oversized_frames_are_rejected_from_the_header() {
    let floor = u32::try_from(MAX_FRAME_LEN).unwrap() + 1;
    check(
        "oversized_frames_are_rejected_from_the_header",
        256,
        |g| {
            let claimed = g.int(i64::from(floor)..=i64::from(u32::MAX)) as u32;
            (claimed, g.next_u64() as u8)
        },
        |&(claimed, tag)| {
            let mut bytes = claimed.to_le_bytes().to_vec();
            bytes.push(PROTOCOL_VERSION);
            bytes.push(tag);
            match decode_one(bytes) {
                Err(DecodeError::Wire(WireError::FrameTooLong { claimed: c })) => {
                    assert_eq!(c, u64::from(claimed));
                }
                other => panic!("expected FrameTooLong: {other:?}"),
            }
        },
    );
}

/// A well-formed frame at a foreign protocol version is refused with
/// the offending version, whatever the message was.
#[test]
fn foreign_versions_are_rejected() {
    check(
        "foreign_versions_are_rejected",
        256,
        |g| (message(g), g.next_u64() as u8),
        |&(ref msg, version)| {
            if version == PROTOCOL_VERSION {
                return;
            }
            let mut bytes = encoded(msg);
            bytes[4] = version; // header layout: [len:4][version:1][type:1]
            match decode_one(bytes) {
                Err(DecodeError::Wire(WireError::UnsupportedVersion(v))) => {
                    assert_eq!(v, version);
                }
                other => panic!("expected UnsupportedVersion: {other:?}"),
            }
        },
    );
}

/// An unknown message tag is refused with the offending tag; 7..=10
/// once carried replication frames and are unknown now too.
#[test]
fn unknown_tags_are_rejected() {
    check(
        "unknown_tags_are_rejected",
        256,
        |g| (message(g), g.int(7..=255) as u8),
        |&(ref msg, tag)| {
            let mut bytes = encoded(msg);
            bytes[5] = tag;
            match decode_one(bytes) {
                Err(DecodeError::Wire(WireError::UnknownType(t))) => assert_eq!(t, tag),
                other => panic!("expected UnknownType: {other:?}"),
            }
        },
    );
}
