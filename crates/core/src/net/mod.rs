//! The networked ingest front door (PR6).
//!
//! Remote units feed location reports over a sessioned, length-prefixed
//! binary protocol ([`wire`]); the server admits them through a bounded,
//! watermarked queue ([`admission`]), suppresses reconnect replays
//! per-session ([`session`]), drains them into the supervised pipeline
//! exactly once ([`server`]), and degrades gracefully under overload —
//! shedding with typed [`ShedReason`]s while the last-good top-k keeps
//! being served. The matching client lives in [`client`]; the calibrated
//! overload sweep (`reproduce --overload-out`) in [`overload`].
//!
//! The invariant every piece preserves, and the chaos suite checks:
//! every accepted report is applied exactly once, and every report that
//! is not applied is accounted for as a replay or a typed shed.
//!
//! A dead engine is not revived behind the door: the door degrades for
//! good, and the monitor comes back as a new process that restarts from
//! its state directory, or through [`standby`] (a warm standby that
//! bootstraps from a shipped checkpoint over [`wire`]'s replication
//! frames, tails the WAL stream, and promotes itself behind an epoch fence
//! when the primary goes dark). The MTTR bench (`reproduce
//! --failover-out`) — outage duration for both ways back — lives in
//! [`mttr`].

pub mod admission;
pub mod client;
pub mod mttr;
pub mod overload;
pub mod server;
pub mod session;
pub mod standby;
pub mod stats;
pub mod wire;

/// The hook type of [`EngineSink::set_durable_hook`].
pub use crate::supervisor::DurableHook;
pub use admission::{AdmissionConfig, AdmissionQueue, QueuedReport};
pub use client::{
    BackoffConfig, ClientConfig, ClientError, ClientStats, Conn, Dialer, FeedClient, ShedRecord,
    TcpDialer,
};
pub use mttr::{run_mttr_bench, MttrConfig, MttrReport, PromotionTrial, SelfHealTrial};
pub use overload::{
    run_sweep, CalibratedSink, CountingSink, LoadPoint, OverloadConfig, SweepReport,
};
pub use server::{
    EngineSink, IngestServer, NetServerConfig, PipelineSink, SinkError, PIPELINE_CAPACITY,
};
pub use session::{SessionConfig, SessionRegistry};
pub use standby::{StandbyConfig, StandbyPhase, StandbyServer, StandbyStatus};
pub use stats::{NetStats, NetStatsSnapshot, ShedReason};
pub use wire::{
    ByeReason, FrameDecoder, FrameWriter, Message, WireError, MAX_CHUNK_DATA, MAX_FRAME_LEN,
};
