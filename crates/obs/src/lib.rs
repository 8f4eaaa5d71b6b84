//! # ctup-obs — observability for the CTUP pipeline
//!
//! Zero-dependency building blocks threaded through core, storage
//! and the CLI:
//!
//! * [`hist`] — log-bucketed (HDR-style) latency histograms: mergeable,
//!   with an exact-round-trip text codec and a lock-free atomic variant
//!   for shared-reference call sites.
//! * [`span`] — the causal span layer: 64-bit trace ids threaded from the
//!   client socket to the top-k publish, deterministic per-stage span ids,
//!   and the lock-free bounded [`span::SpanSink`] rings merged on snapshot.
//!   The rings are also the crash record: when the supervised engine is
//!   killed or gives up, its dump is a terminal line plus its newest spans.
//! * [`latency`] — [`latency::PhaseTimer`] for maintain/access phase
//!   timing, the [`latency::ObsHub`] owning a run's histograms,
//!   and the [`latency::LatencySnapshot`] view reports are built from.
//! * [`json`] — the minimal JSON writer the dump and report formats share
//!   (the workspace carries no JSON dependency).
//! * [`http`] — a tiny std-`TcpListener` responder serving the Prometheus
//!   exposition text at `/metrics` during a run.
//!
//! The crate is panic-free library code (the crate root denies clippy's panic lints) and depends
//! on nothing outside `std`.

// Library lint policy, DESIGN.md §10: every suppression is a reasoned
// `#[expect]`; the `deny` list below holds outside test code.
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(
    not(test),
    deny(
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

pub mod hist;
pub mod http;
pub mod json;
pub mod latency;
pub mod span;

pub use hist::{AtomicHistogram, HistDecodeError, LogHistogram};
pub use http::{MetricsPublisher, MetricsServer};
pub use latency::{summarize, LatencySnapshot, ObsHub, PhaseTimer};
pub use span::{
    mint_trace, now_nanos, parent_span_id, sample_trace, span_id, Span, SpanCounters, SpanSink,
    SpanSnapshot, Stage,
};
