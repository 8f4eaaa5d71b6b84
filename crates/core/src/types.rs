//! Core domain types of the CTUP query.

use ctup_spatial::{Circle, Point};

pub use ctup_storage::{PlaceId, PlaceRecord as Place};

/// Safety values are small integers (`AP − RP`), but intermediate lower
/// bounds take sentinel values, hence a wide signed type.
pub type Safety = i64;

/// Lower bound of an empty cell / a cell with no non-maintained places:
/// nothing in it can ever be unsafe.
pub const LB_NONE: Safety = Safety::MAX;

/// Identifier of a protecting unit, dense in `0..|U|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitId(pub u32);

impl UnitId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        ctup_spatial::convert::index(self.0)
    }
}

/// A protecting unit: its identifier and last reported location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    /// Identifier.
    pub id: UnitId,
    /// Last reported location.
    pub pos: Point,
}

impl Unit {
    /// The unit's protecting region for a given protection range.
    #[inline]
    pub fn region(&self, radius: f64) -> Circle {
        Circle::new(self.pos, radius)
    }
}

/// A location update received by the server: unit `unit` is now at `new`.
/// The previous position is resolved by the server from its unit table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationUpdate {
    /// The reporting unit.
    pub unit: UnitId,
    /// Its new position.
    pub new: Point,
}

/// One entry of the continuously monitored result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKEntry {
    /// The unsafe place.
    pub place: PlaceId,
    /// Its current safety.
    pub safety: Safety,
}

/// Whether a unit at `unit_pos` with protection range `radius` protects
/// `place` (paper Definition 1).
#[inline]
pub fn protects(unit_pos: Point, radius: f64, place: &Place) -> bool {
    unit_pos.dist2(place.pos) <= radius * radius
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_place_protection_is_distance_based() {
        let place = Place::point(PlaceId(0), Point::new(0.5, 0.5), 1);
        assert!(protects(Point::new(0.5, 0.58), 0.1, &place));
        assert!(protects(Point::new(0.5, 0.6), 0.1, &place)); // boundary
        assert!(!protects(Point::new(0.5, 0.61), 0.1, &place));
    }

    #[test]
    fn unit_region() {
        let u = Unit {
            id: UnitId(3),
            pos: Point::new(0.2, 0.3),
        };
        let r = u.region(0.1);
        assert_eq!(r.center, u.pos);
        assert_eq!(r.radius, 0.1);
    }
}
