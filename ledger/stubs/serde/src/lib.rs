//! Offline stand-in for `serde`: re-exports the no-op derives, which is
//! the whole of serde the ctup workspace touches.

pub use serde_derive::{Deserialize, Serialize};
