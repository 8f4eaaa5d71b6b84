//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each experiment (`fig3` … `fig9`, plus ablations) is a function that
//! builds the workload, runs the algorithms, and returns rows the
//! `reproduce` binary prints.

// Library lint policy, DESIGN.md §10: every suppression is a reasoned
// `#[expect]`; the `deny` list below holds outside test code.
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use harness::{
    build_setup, measure_batched_observed, measure_updates, measure_updates_observed,
    shard_scaling_matrix, stream, AlgKind, RunSummary, Setup, SetupParams, ShardConfig,
    SHARD_BATCH,
};
