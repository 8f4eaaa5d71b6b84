//! Axis-aligned rectangles (grid cells, R-tree bounding boxes).

use crate::point::Point;

/// A closed axis-aligned rectangle `[lo.x, hi.x] × [lo.y, hi.y]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub lo: Point,
    /// Upper-right corner.
    pub hi: Point,
}

impl Rect {
    /// Creates a rectangle from its lower-left and upper-right corners.
    ///
    /// # Panics
    /// Panics in debug builds if the corners are not ordered.
    #[inline]
    pub fn new(lo: Point, hi: Point) -> Self {
        debug_assert!(
            lo.x <= hi.x && lo.y <= hi.y,
            "malformed rect {lo:?}..{hi:?}"
        );
        Rect { lo, hi }
    }

    /// Creates a rectangle from the coordinates of its corners.
    #[inline]
    pub fn from_coords(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    /// The degenerate rectangle covering a single point.
    #[inline]
    pub fn point(p: Point) -> Self {
        Rect { lo: p, hi: p }
    }

    /// A rectangle that behaves as the identity under [`Rect::union`]:
    /// its bounds are inverted so any union replaces them.
    #[inline]
    pub fn empty() -> Self {
        Rect {
            lo: Point::new(f64::INFINITY, f64::INFINITY),
            hi: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Width (x extent).
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi.x - self.lo.x
    }

    /// Height (y extent).
    #[inline]
    pub fn height(&self) -> f64 {
        self.hi.y - self.lo.y
    }

    /// Area; zero for degenerate rectangles.
    #[inline]
    pub fn area(&self) -> f64 {
        let w = self.width();
        let h = self.height();
        if w <= 0.0 || h <= 0.0 {
            0.0
        } else {
            w * h
        }
    }

    /// Half-perimeter, the classic R-tree "margin" measure.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width().max(0.0) + self.height().max(0.0)
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        self.lo.midpoint(self.hi)
    }

    /// Whether `p` lies inside the closed rectangle.
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        p.x >= self.lo.x && p.x <= self.hi.x && p.y >= self.lo.y && p.y <= self.hi.y
    }

    /// Whether `other` lies entirely inside `self` (closed containment).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.lo.x <= other.lo.x
            && self.lo.y <= other.lo.y
            && self.hi.x >= other.hi.x
            && self.hi.y >= other.hi.y
    }

    /// Whether the two closed rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
    }

    /// Smallest rectangle covering both inputs.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            lo: Point::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        }
    }

    /// Grows the rectangle by `r` on every side.
    #[inline]
    pub fn inflate(&self, r: f64) -> Rect {
        Rect {
            lo: Point::new(self.lo.x - r, self.lo.y - r),
            hi: Point::new(self.hi.x + r, self.hi.y + r),
        }
    }

    /// Squared distance from `p` to the closest point of the rectangle;
    /// zero when `p` is inside.
    #[inline]
    pub fn min_dist2(&self, p: Point) -> f64 {
        let dx = (self.lo.x - p.x).max(0.0).max(p.x - self.hi.x);
        let dy = (self.lo.y - p.y).max(0.0).max(p.y - self.hi.y);
        dx * dx + dy * dy
    }

    /// Squared distance from `p` to the farthest point of the rectangle
    /// (always one of the four corners).
    #[inline]
    pub fn max_dist2(&self, p: Point) -> f64 {
        let dx = (p.x - self.lo.x).abs().max((p.x - self.hi.x).abs());
        let dy = (p.y - self.lo.y).abs().max((p.y - self.hi.y).abs());
        dx * dx + dy * dy
    }

    /// The four corners, counter-clockwise from `lo`.
    #[inline]
    pub fn corners(&self) -> [Point; 4] {
        [
            self.lo,
            Point::new(self.hi.x, self.lo.y),
            self.hi,
            Point::new(self.lo.x, self.hi.y),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::from_coords(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn containment_is_closed() {
        let r = unit();
        assert!(r.contains_point(Point::new(0.0, 0.0)));
        assert!(r.contains_point(Point::new(1.0, 1.0)));
        assert!(r.contains_point(Point::new(0.5, 0.5)));
        assert!(!r.contains_point(Point::new(1.0 + 1e-12, 0.5)));
    }

    #[test]
    fn intersects_touching_edges() {
        let a = unit();
        let b = Rect::from_coords(1.0, 0.0, 2.0, 1.0);
        let c = Rect::from_coords(1.5, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn union_covers_both() {
        let a = unit();
        let b = Rect::from_coords(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, Rect::from_coords(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn empty_is_union_identity() {
        let a = Rect::from_coords(0.25, 0.5, 0.75, 0.9);
        assert_eq!(Rect::empty().union(&a), a);
        assert_eq!(a.union(&Rect::empty()), a);
        assert_eq!(Rect::empty().area(), 0.0);
    }

    #[test]
    fn min_max_dist() {
        let r = unit();
        // Inside: min 0, max to farthest corner.
        assert_eq!(r.min_dist2(Point::new(0.5, 0.5)), 0.0);
        assert_eq!(r.max_dist2(Point::new(0.0, 0.0)), 2.0);
        // Outside along x.
        assert_eq!(r.min_dist2(Point::new(2.0, 0.5)), 1.0);
        // Outside diagonally.
        assert_eq!(r.min_dist2(Point::new(2.0, 2.0)), 2.0);
    }

    #[test]
    fn area_and_margin() {
        let r = Rect::from_coords(0.0, 0.0, 2.0, 3.0);
        assert_eq!(r.area(), 6.0);
        assert_eq!(r.margin(), 5.0);
        assert_eq!(Rect::point(Point::new(1.0, 1.0)).area(), 0.0);
    }

    #[test]
    fn corners_lie_on_boundary() {
        let r = Rect::from_coords(-1.0, -2.0, 3.0, 4.0);
        for c in r.corners() {
            assert!(r.contains_point(c));
        }
    }

    #[test]
    fn inflate_grows_every_side() {
        let r = unit().inflate(0.5);
        assert_eq!(r, Rect::from_coords(-0.5, -0.5, 1.5, 1.5));
    }
}
