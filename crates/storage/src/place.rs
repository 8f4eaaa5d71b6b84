//! Place records — the protected objects stored at the lower level.

use ctup_spatial::Point;

/// Identifier of a place, dense in `0..|P|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub u32);

impl PlaceId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The largest required protection a place may carry.
///
/// A safety is `AP − RP` with `AP ∈ 0..=|U|`, and the monitors keep one
/// level per safety value from the lowest to the highest, so an unbounded
/// `RP` would let one place's requirement size their memory. Store
/// builders, the snapshot reader and checkpoint validation all refuse a
/// place above this bound.
pub const MAX_RP: u32 = 1 << 16;

/// A place that needs protection: a bank, residential building, mall, …
///
/// The paper models places as points.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceRecord {
    /// Identifier, unique within a data set.
    pub id: PlaceId,
    /// Location.
    pub pos: Point,
    /// Required protection `RP(p)`: how many units must be protecting the
    /// place for it to be considered safe.
    pub rp: u32,
}

impl PlaceRecord {
    /// A point place.
    pub fn point(id: PlaceId, pos: Point, rp: u32) -> Self {
        PlaceRecord { id, pos, rp }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_is_24_bytes() {
        assert_eq!(std::mem::size_of::<PlaceRecord>(), 24);
        assert_eq!(
            PlaceRecord::point(PlaceId(3), Point::new(0.5, 0.5), 2)
                .id
                .index(),
            3
        );
    }
}
