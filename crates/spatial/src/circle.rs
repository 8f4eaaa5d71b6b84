//! Circles — the protecting regions of units.

use crate::point::Point;
use crate::rect::Rect;

/// A closed disk: the protecting region of a unit. A place `p` is protected
/// iff `dist(center, p) <= radius` (the paper's Definition 1, with closed
/// boundary so that protection and the N/P/F cell classification agree).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the disk (the unit's location).
    pub center: Point,
    /// Radius of the disk (the protection range).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle; the radius must be non-negative.
    #[inline]
    pub fn new(center: Point, radius: f64) -> Self {
        debug_assert!(radius >= 0.0, "negative radius {radius}");
        Circle { center, radius }
    }

    /// Whether `p` is inside the closed disk.
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        self.center.dist2(p) <= self.radius * self.radius
    }

    /// Whether the whole rectangle lies inside the closed disk
    /// (true iff its farthest corner does).
    #[inline]
    pub fn contains_rect(&self, r: &Rect) -> bool {
        r.max_dist2(self.center) <= self.radius * self.radius
    }

    /// Whether the disk and the closed rectangle share at least one point.
    #[inline]
    pub fn intersects_rect(&self, r: &Rect) -> bool {
        r.min_dist2(self.center) <= self.radius * self.radius
    }

    /// The bounding box of the disk.
    #[inline]
    pub fn bbox(&self) -> Rect {
        Rect::point(self.center).inflate(self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_containment_is_closed() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        assert!(c.contains_point(Point::new(1.0, 0.0)));
        assert!(c.contains_point(Point::new(0.6, 0.8)));
        assert!(!c.contains_point(Point::new(1.0 + 1e-9, 0.0)));
    }

    #[test]
    fn rect_containment_uses_far_corner() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        let inside = Rect::from_coords(-0.5, -0.5, 0.5, 0.5); // far corner at dist ~0.707
        let sticking_out = Rect::from_coords(-0.8, -0.8, 0.8, 0.8); // far corner at ~1.13
        assert!(c.contains_rect(&inside));
        assert!(!c.contains_rect(&sticking_out));
        assert!(c.intersects_rect(&sticking_out));
    }

    #[test]
    fn disjoint_rect() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        let far = Rect::from_coords(2.0, 2.0, 3.0, 3.0);
        assert!(!c.intersects_rect(&far));
        // Corner-adjacent rect whose nearest point is exactly at distance 1.
        let touching = Rect::from_coords(1.0, 0.0, 2.0, 1.0);
        assert!(c.intersects_rect(&touching));
    }

    #[test]
    fn bbox_covers_disk() {
        let c = Circle::new(Point::new(0.5, -0.5), 0.25);
        assert_eq!(c.bbox(), Rect::from_coords(0.25, -0.75, 0.75, -0.25));
    }

    #[test]
    fn zero_radius_circle() {
        let c = Circle::new(Point::new(0.5, 0.5), 0.0);
        assert!(c.contains_point(Point::new(0.5, 0.5)));
        assert!(!c.contains_point(Point::new(0.5, 0.500001)));
        assert!(c.intersects_rect(&Rect::from_coords(0.0, 0.0, 1.0, 1.0)));
    }
}
