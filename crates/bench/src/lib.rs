//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each experiment (`fig3` … `fig9`, plus ablations) is a function that
//! builds the workload, runs the algorithms, and returns rows the
//! `reproduce` binary prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use harness::{
    build_setup, measure_batched_observed, measure_updates, measure_updates_observed,
    shard_scaling_matrix, snapshot_algorithms, snapshot_sharded, stream, AlgKind, RunSummary,
    Setup, SetupParams, ShardConfig, SHARD_BATCH,
};
