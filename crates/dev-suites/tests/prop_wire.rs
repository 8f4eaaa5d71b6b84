//! Property tests of the wire frame codec, replication frames included:
//! arbitrary messages must round-trip bit-exactly through the incremental
//! decoder (whole, truncated-and-resumed, or trickled byte by byte), and
//! hostile headers — oversized frames, foreign protocol versions, unknown
//! tags, oversized checkpoint chunks — must come back as typed
//! `WireError`s, never panics or unbounded allocations.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup_core::net::wire::{
    ByeReason, DecodeError, FrameDecoder, Message, WireError, MAX_CHUNK_DATA, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use ctup_core::net::ShedReason;
use proptest::prelude::*;
use std::io::Read;

fn coord() -> impl Strategy<Value = f64> {
    // Finite coordinates only: NaN breaks the equality the round-trip
    // asserts; bit-exact NaN transport is pinned by the unit tests.
    prop_oneof![
        -1.0e6f64..1.0e6,
        Just(0.0),
        Just(-0.0),
        Just(f64::MIN_POSITIVE),
    ]
}

fn shed_reason() -> impl Strategy<Value = ShedReason> {
    prop_oneof![
        Just(ShedReason::QueueFull),
        Just(ShedReason::DeadlineExceeded),
        Just(ShedReason::SessionQuota),
        Just(ShedReason::EngineDegraded),
    ]
}

fn bye_reason() -> impl Strategy<Value = ByeReason> {
    prop_oneof![
        Just(ByeReason::Done),
        Just(ByeReason::ServerFull),
        Just(ByeReason::ProtocolError),
        Just(ByeReason::Shutdown),
    ]
}

/// Every message variant, replication frames included.
fn message() -> impl Strategy<Value = Message> {
    prop_oneof![
        any::<u64>().prop_map(|resume_session| Message::Hello { resume_session }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            coord(),
            coord(),
            any::<u64>()
        )
            .prop_map(|(seq, unit_seq, ts, unit, x, y, trace)| Message::Report {
                seq,
                unit_seq,
                ts,
                unit,
                x,
                y,
                trace,
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(session, handled_up_to)| Message::Ack {
            session,
            handled_up_to,
        }),
        (any::<u64>(), shed_reason()).prop_map(|(seq, reason)| Message::Shed { seq, reason }),
        (
            any::<bool>(),
            proptest::collection::vec((any::<u32>(), any::<i64>()), 0..16)
        )
            .prop_map(|(degraded, entries)| Message::SnapshotPush { degraded, entries }),
        bye_reason().prop_map(|reason| Message::Bye { reason }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(epoch, slot_seq, total_len)| {
            Message::CheckpointOffer {
                epoch,
                slot_seq,
                total_len,
            }
        }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..256)
        )
            .prop_map(|(epoch, offset, data)| Message::CheckpointChunk {
                epoch,
                offset,
                data,
            }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            coord(),
            coord(),
            any::<u64>()
        )
            .prop_map(
                |(epoch, unit_seq, ts, unit, x, y, trace)| Message::WalAppend {
                    epoch,
                    unit_seq,
                    ts,
                    unit,
                    x,
                    y,
                    trace,
                }
            ),
        any::<u64>().prop_map(|epoch| Message::PromoteQuery { epoch }),
    ]
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

proptest! {
    /// A stream of arbitrary messages delivered at arbitrary split points
    /// round-trips exactly, in order.
    #[test]
    fn streams_round_trip_at_any_split(
        msgs in proptest::collection::vec(message(), 1..8),
        sizes in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let mut bytes = Vec::new();
        for msg in &msgs {
            msg.encode(&mut bytes);
        }
        let mut reader = Chunked { data: bytes, pos: 0, sizes, next_size: 0 };
        let mut decoder = FrameDecoder::new();
        for expected in &msgs {
            let got = decode_next(&mut decoder, &mut reader).expect("decode");
            prop_assert_eq!(&got, expected);
        }
        match decode_next(&mut decoder, &mut reader) {
            Err(DecodeError::Closed { mid_frame }) => prop_assert!(!mid_frame),
            other => prop_assert!(false, "expected clean close: {:?}", other),
        }
    }

    /// Cutting a frame anywhere is reported as a closed stream — torn
    /// exactly when bytes of the frame had already arrived — never a
    /// panic or a phantom message.
    #[test]
    fn truncation_is_a_typed_close(msg in message(), cut_sel in any::<proptest::sample::Index>()) {
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        let cut = cut_sel.index(bytes.len()); // 0..len: always a strict prefix
        bytes.truncate(cut);
        let mut reader = Chunked { data: bytes, pos: 0, sizes: vec![usize::MAX], next_size: 0 };
        let mut decoder = FrameDecoder::new();
        match decode_next(&mut decoder, &mut reader) {
            Err(DecodeError::Closed { mid_frame }) => prop_assert_eq!(mid_frame, cut > 0),
            other => prop_assert!(false, "expected closed: {:?}", other),
        }
    }

    /// A header claiming a payload beyond [`MAX_FRAME_LEN`] is rejected
    /// from the header alone — before any payload is read or buffered.
    #[test]
    fn oversized_frames_are_rejected_from_the_header(
        claimed in (u32::try_from(MAX_FRAME_LEN).unwrap() + 1)..=u32::MAX,
        tag in any::<u8>(),
    ) {
        let mut bytes = claimed.to_le_bytes().to_vec();
        bytes.push(PROTOCOL_VERSION);
        bytes.push(tag);
        let mut reader = Chunked { data: bytes, pos: 0, sizes: vec![usize::MAX], next_size: 0 };
        let mut decoder = FrameDecoder::new();
        match decode_next(&mut decoder, &mut reader) {
            Err(DecodeError::Wire(WireError::FrameTooLong { claimed: c })) => {
                prop_assert_eq!(c, u64::from(claimed));
            }
            other => prop_assert!(false, "expected FrameTooLong: {:?}", other),
        }
    }

    /// A well-formed frame at a foreign protocol version is refused with
    /// the offending version, whatever the message was.
    #[test]
    fn foreign_versions_are_rejected(msg in message(), version in any::<u8>()) {
        prop_assume!(version != PROTOCOL_VERSION);
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        bytes[4] = version; // header layout: [len:4][version:1][type:1]
        let mut reader = Chunked { data: bytes, pos: 0, sizes: vec![usize::MAX], next_size: 0 };
        let mut decoder = FrameDecoder::new();
        match decode_next(&mut decoder, &mut reader) {
            Err(DecodeError::Wire(WireError::UnsupportedVersion(v))) => {
                prop_assert_eq!(v, version);
            }
            other => prop_assert!(false, "expected UnsupportedVersion: {:?}", other),
        }
    }

    /// An unknown message tag is refused with the offending tag.
    #[test]
    fn unknown_tags_are_rejected(msg in message(), tag in 11u8..=u8::MAX) {
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        bytes[5] = tag;
        let mut reader = Chunked { data: bytes, pos: 0, sizes: vec![usize::MAX], next_size: 0 };
        let mut decoder = FrameDecoder::new();
        match decode_next(&mut decoder, &mut reader) {
            Err(DecodeError::Wire(WireError::UnknownType(t))) => prop_assert_eq!(t, tag),
            other => prop_assert!(false, "expected UnknownType: {:?}", other),
        }
    }

    /// A hand-crafted checkpoint chunk claiming more than
    /// [`MAX_CHUNK_DATA`] bytes is refused even though it fits under the
    /// frame cap — and the honest encoder can never produce one: it clamps
    /// oversized data to the cap on the way out.
    #[test]
    fn oversized_chunks_are_rejected(
        epoch in any::<u64>(),
        offset in any::<u64>(),
        extra in 1u32..512,
    ) {
        let chunk_cap = u32::try_from(MAX_CHUNK_DATA).unwrap();
        let claimed = chunk_cap + extra;
        let mut payload = Vec::new();
        payload.extend_from_slice(&epoch.to_le_bytes());
        payload.extend_from_slice(&offset.to_le_bytes());
        payload.extend_from_slice(&claimed.to_le_bytes());
        payload.resize(payload.len() + usize::try_from(claimed).unwrap(), 0xA5);
        let mut bytes = u32::try_from(payload.len()).unwrap().to_le_bytes().to_vec();
        bytes.push(PROTOCOL_VERSION);
        bytes.push(8); // tag::CHECKPOINT_CHUNK
        bytes.extend_from_slice(&payload);
        let mut reader = Chunked { data: bytes, pos: 0, sizes: vec![usize::MAX], next_size: 0 };
        let mut decoder = FrameDecoder::new();
        match decode_next(&mut decoder, &mut reader) {
            Err(DecodeError::Wire(WireError::ChunkTooLong(n))) => {
                prop_assert_eq!(n, u64::from(claimed));
            }
            other => prop_assert!(false, "expected ChunkTooLong: {:?}", other),
        }

        // The honest encoder clamps instead: an oversized chunk goes out
        // (and comes back) truncated to the cap, never as a codec error.
        let msg = Message::CheckpointChunk {
            epoch,
            offset,
            data: vec![0xA5; MAX_CHUNK_DATA + usize::try_from(extra).unwrap()],
        };
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        let mut reader = Chunked { data: bytes, pos: 0, sizes: vec![usize::MAX], next_size: 0 };
        let mut decoder = FrameDecoder::new();
        match decode_next(&mut decoder, &mut reader) {
            Ok(Message::CheckpointChunk { data, .. }) => {
                prop_assert_eq!(data.len(), MAX_CHUNK_DATA);
            }
            other => prop_assert!(false, "expected clamped chunk: {:?}", other),
        }
    }
}
