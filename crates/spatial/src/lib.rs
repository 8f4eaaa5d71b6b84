//! Spatial substrate for the CTUP reproduction: geometry primitives, the
//! N/P/F circle–cell classifier that drives lower-bound maintenance, uniform
//! grid partitioning, a from-scratch R-tree, and a moving-object grid index.
//!
//! Everything here is independent of the CTUP algorithms and reusable for
//! other continuous spatial queries.

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
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circle;
pub mod convert;
pub mod grid;
pub mod layout;
pub mod morton;
pub mod point;
pub mod rect;
pub mod relation;
pub mod rtree;
pub mod unit_index;

pub use circle::Circle;
pub use grid::{CellId, Grid};
pub use layout::CellLayout;
pub use morton::MortonCode;
pub use point::Point;
pub use rect::Rect;
pub use relation::Relation;
pub use rtree::RTree;
pub use unit_index::UnitGridIndex;
