//! Executable models of the workspace's real concurrency protocols.
//!
//! Each module models one protocol at the granularity of its real atomic
//! sections (one lock-held region = one [`Step`](crate::Step)), states
//! its safety properties as invariants/final checks, and exposes a
//! `Mutation` enum whose non-`Correct` variants re-introduce a specific
//! bug — including the historical ones these protocols were hardened
//! against. The mutation-validation suite (`tests/sched_models.rs` at
//! the workspace root, mirrored by unit tests here) proves every checker
//! catches its seeded mutant, so a green exhaustive run is evidence, not
//! vacuity.
//!
//! | Model | Real code | Property |
//! |-------|-----------|----------|
//! | [`session`] | `core::net::session` pending/ack, writer half | ack never precedes apply; no ghost pending; exactly-once; a shed precedes the ack covering it |
//! | [`park`] | `core::net::admission` park/kick | no lost wake-up; no wake-up for nobody |
//! | [`admission`] | `core::net::admission` hysteresis | bounded depth; clears only at low; no shed latch-up |
//! | [`barrier`] | `core::parallel` batch barrier | merge only after every shard; merged == sequential |

pub mod admission;
pub mod barrier;
pub mod park;
pub mod session;
