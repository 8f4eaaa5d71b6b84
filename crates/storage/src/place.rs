//! Place records — the protected objects stored at the lower level.

use ctup_spatial::{Point, Rect};

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
/// The paper models places as points; the "places with extent" future-work
/// extension is supported through the optional `extent` rectangle (which
/// must contain `pos`).
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceRecord {
    /// Identifier, unique within a data set.
    pub id: PlaceId,
    /// Representative location (for extended places, a point inside the
    /// extent, typically its center).
    pub pos: Point,
    /// Required protection `RP(p)`: how many units must be protecting the
    /// place for it to be considered safe.
    pub rp: u32,
    /// Spatial extent for the extended-places model; `None` for point
    /// places.
    pub extent: Option<Rect>,
}

impl PlaceRecord {
    /// A point place.
    pub fn point(id: PlaceId, pos: Point, rp: u32) -> Self {
        PlaceRecord {
            id,
            pos,
            rp,
            extent: None,
        }
    }

    /// An extended place covering `extent`.
    ///
    /// # Panics
    /// Panics in debug builds if the extent does not contain `pos`.
    pub fn extended(id: PlaceId, pos: Point, rp: u32, extent: Rect) -> Self {
        debug_assert!(extent.contains_point(pos), "extent must contain pos");
        PlaceRecord {
            id,
            pos,
            rp,
            extent: Some(extent),
        }
    }

    /// Distance from `pos` to the farthest corner of the extent, zero for
    /// point places. The whole extent lies within this radius of `pos`, so
    /// cell metadata can aggregate it to keep the Full-containment
    /// classification sound for extended places.
    pub fn extent_margin(&self) -> f64 {
        match &self.extent {
            None => 0.0,
            Some(r) => r.max_dist2(self.pos).sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_place_has_zero_margin() {
        let p = PlaceRecord::point(PlaceId(3), Point::new(0.5, 0.5), 2);
        assert_eq!(p.extent_margin(), 0.0);
        assert_eq!(p.id.index(), 3);
    }

    #[test]
    fn extended_place_margin_reaches_far_corner() {
        let r = Rect::from_coords(0.0, 0.0, 0.2, 0.1);
        // Centered: margin is the half-diagonal.
        let p = PlaceRecord::extended(PlaceId(0), Point::new(0.1, 0.05), 1, r);
        let half_diag = (0.1f64 * 0.1 + 0.05 * 0.05).sqrt();
        assert!((p.extent_margin() - half_diag).abs() < 1e-12);
        // Off-center position: margin grows to the farthest corner.
        let q = PlaceRecord::extended(PlaceId(1), Point::new(0.0, 0.0), 1, r);
        let diag = (0.2f64 * 0.2 + 0.1 * 0.1).sqrt();
        assert!((q.extent_margin() - diag).abs() < 1e-12);
    }
}
