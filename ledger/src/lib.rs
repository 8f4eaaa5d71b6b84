//! # ctup-ledger — one end-to-end + per-layer benchmark for the CTUP monitor
//!
//! Four workloads (two through the socket, two in process), six
//! end-to-end metrics measured with tracing off, and a per-layer table
//! measured by a separate traced run. See `README.md` for the glossary,
//! the layer -> end-to-end interaction table and how to run, trace and
//! diff; `BENCHMARK.json` at the repository root states the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod drive;
pub mod json;
pub mod layers;
pub mod procfs;
pub mod results;
pub mod spec;
pub mod stats;
pub mod sut;
pub mod workloads;
