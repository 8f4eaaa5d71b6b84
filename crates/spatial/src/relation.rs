//! The N/P/F relationship between a protecting region and a grid cell.
//!
//! Tables I and II of the paper drive lower-bound maintenance off the
//! relationship between a unit's circular protecting region and a cell:
//! **N**ot intersecting, **P**artially intersecting, or **F**ully containing
//! the cell. The classification must be consistent with point-level
//! protection ([`Circle::contains_point`]): if the relation is `F` every
//! place in the cell is protected, and if it is `N` none is. Both follow
//! from using the same closed-disk predicate on the cell's nearest and
//! farthest points.

use crate::circle::Circle;
use crate::rect::Rect;

/// Relationship of a protecting region with a cell (paper §III.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// The region does not intersect the cell: no place in the cell is
    /// protected by the unit.
    None,
    /// The region partially intersects the cell: places may or may not be
    /// protected.
    Partial,
    /// The region fully contains the cell: every place in the cell is
    /// protected by the unit.
    Full,
}

impl Relation {
    /// Classifies `region` against `cell`.
    #[inline]
    pub fn classify(region: &Circle, cell: &Rect) -> Relation {
        let r2 = region.radius * region.radius;
        if cell.min_dist2(region.center) > r2 {
            Relation::None
        } else if cell.max_dist2(region.center) <= r2 {
            Relation::Full
        } else {
            Relation::Partial
        }
    }

    /// True unless the relation is [`Relation::None`].
    #[inline]
    pub fn intersects(self) -> bool {
        self != Relation::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn cell() -> Rect {
        Rect::from_coords(0.0, 0.0, 0.1, 0.1)
    }

    #[test]
    fn classify_none_partial_full() {
        let far = Circle::new(Point::new(1.0, 1.0), 0.1);
        let overlapping = Circle::new(Point::new(0.12, 0.05), 0.05);
        let covering = Circle::new(Point::new(0.05, 0.05), 0.2);
        assert_eq!(Relation::classify(&far, &cell()), Relation::None);
        assert_eq!(Relation::classify(&overlapping, &cell()), Relation::Partial);
        assert_eq!(Relation::classify(&covering, &cell()), Relation::Full);
    }

    #[test]
    fn full_requires_far_corner() {
        // Center of cell, radius just below the half-diagonal: partial.
        let half_diag = (2.0_f64).sqrt() * 0.05;
        let c = Circle::new(Point::new(0.05, 0.05), half_diag - 1e-9);
        assert_eq!(Relation::classify(&c, &cell()), Relation::Partial);
        let c = Circle::new(Point::new(0.05, 0.05), half_diag + 1e-9);
        assert_eq!(Relation::classify(&c, &cell()), Relation::Full);
    }

    #[test]
    fn boundary_touch_counts_as_partial() {
        // Disk touching the cell at exactly one boundary point.
        let c = Circle::new(Point::new(0.2, 0.05), 0.1);
        assert_eq!(Relation::classify(&c, &cell()), Relation::Partial);
    }

    #[test]
    fn consistency_with_point_protection() {
        // Sample points of the cell; F must protect all, N must protect none.
        let cases = [
            Circle::new(Point::new(0.05, 0.05), 0.5),
            Circle::new(Point::new(0.3, 0.3), 0.1),
            Circle::new(Point::new(0.08, 0.02), 0.04),
        ];
        for region in cases {
            let rel = Relation::classify(&region, &cell());
            for i in 0..=10 {
                for j in 0..=10 {
                    let p = Point::new(0.01 * i as f64, 0.01 * j as f64);
                    match rel {
                        Relation::Full => assert!(region.contains_point(p)),
                        Relation::None => assert!(!region.contains_point(p)),
                        Relation::Partial => {}
                    }
                }
            }
        }
    }

    #[test]
    fn intersects_helper() {
        assert!(!Relation::None.intersects());
        assert!(Relation::Partial.intersects());
        assert!(Relation::Full.intersects());
    }
}
