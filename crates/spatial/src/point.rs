//! 2-D points in the longitude/latitude plane.

/// A point in the 2-D space the server partitions (the paper's
/// longitude × latitude plane, normalized to arbitrary coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (longitude).
    pub x: f64,
    /// Vertical coordinate (latitude).
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Predicates in this crate compare squared distances against squared
    /// radii so that no square root is taken on the hot path.
    #[inline]
    pub fn dist2(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: Point) -> f64 {
        self.dist2(other).sqrt()
    }

    /// Linear interpolation from `self` towards `to`; `t = 0` yields `self`,
    /// `t = 1` yields `to`.
    #[inline]
    pub fn lerp(&self, to: Point, t: f64) -> Point {
        Point::new(self.x + (to.x - self.x) * t, self.y + (to.y - self.y) * t)
    }

    /// Component-wise midpoint.
    #[inline]
    pub fn midpoint(&self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_matches_dist2() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist2(b), 25.0);
        assert_eq!(a.dist(b), 5.0);
    }

    #[test]
    fn dist_is_symmetric() {
        let a = Point::new(-1.5, 2.0);
        let b = Point::new(0.25, -7.0);
        assert_eq!(a.dist2(b), b.dist2(a));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.midpoint(b), Point::new(2.0, 4.0));
    }

    #[test]
    fn from_tuple() {
        let p: Point = (0.5, 0.75).into();
        assert_eq!(p, Point::new(0.5, 0.75));
    }
}
