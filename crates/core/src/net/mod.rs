//! The networked ingest front door (PR6).
//!
//! Remote units feed location reports over a sessioned, length-prefixed
//! binary protocol ([`wire`]); the server admits them through a bounded,
//! watermarked queue ([`admission`]), suppresses reconnect replays
//! per-session ([`session`]), and drains them into the supervised
//! pipeline exactly once ([`server`]). Overload sheds with typed
//! [`ShedReason`]s through the queue's watermarks and the ingest
//! deadline; the door degrades only when its engine dies, and then for
//! good, while the last-good top-k keeps being served. The matching
//! client lives in [`client`].
//!
//! The invariant every piece preserves, and the chaos suite checks:
//! every accepted report is applied exactly once, and every report that
//! is not applied is accounted for as a replay or a typed shed.
//!
//! A dead engine is not revived behind the door: the door degrades for
//! good, and the monitor comes back as a new process that restarts from
//! its state directory — recovery is crash-only (`ctup serve --recover`
//! prints how long the restart took).

pub mod admission;
pub mod client;
pub mod server;
pub mod session;
pub mod stats;
pub mod wire;

/// The hook type of [`EngineSink::set_durable_hook`].
pub use crate::supervisor::DurableHook;
pub use admission::{AdmissionConfig, AdmissionQueue, QueuedReport};
pub use client::{
    ClientConfig, ClientError, ClientStats, Conn, Dialer, FeedClient, ShedRecord, TcpDialer,
};
pub use server::{
    CountingSink, EngineSink, IngestServer, NetServerConfig, PipelineSink, SinkError,
    PIPELINE_CAPACITY,
};
pub use session::{SessionConfig, SessionRegistry};
pub use stats::{NetStats, NetStatsSnapshot, ShedReason};
pub use wire::{ByeReason, FrameDecoder, FrameWriter, Message, WireError, MAX_FRAME_LEN};
