//! Axis-aligned line segments, the atoms of global routes.

use std::fmt;

use crate::{Axis, Coord, Dir, GeomError, Interval, Point, Rect};

/// An axis-aligned segment between two points.
///
/// The endpoints are normalized so that `a() <= b()` lexicographically,
/// making equal segments compare equal regardless of construction order.
/// Degenerate segments (`a == b`) are allowed; they arise naturally when a
/// route's bend coincides with a pin.
///
/// ```
/// use gcr_geom::{Point, Segment};
/// # fn main() -> Result<(), gcr_geom::GeomError> {
/// let s = Segment::new(Point::new(10, 4), Point::new(2, 4))?;
/// assert_eq!(s.a(), Point::new(2, 4)); // normalized
/// assert_eq!(s.len(), 8);
/// assert!(s.contains(Point::new(6, 4)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Segment {
    a: Point,
    b: Point,
}

impl Segment {
    /// Creates a segment between axis-aligned endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::NotAxisAligned`] if the points differ on both
    /// axes.
    pub fn new(p: Point, q: Point) -> Result<Segment, GeomError> {
        if p.x != q.x && p.y != q.y {
            return Err(GeomError::NotAxisAligned);
        }
        let (a, b) = if p <= q { (p, q) } else { (q, p) };
        Ok(Segment { a, b })
    }

    /// Creates a horizontal segment at height `y` spanning `x` coordinates
    /// in any order.
    #[must_use]
    pub fn horizontal(y: Coord, x0: Coord, x1: Coord) -> Segment {
        Segment {
            a: Point::new(x0.min(x1), y),
            b: Point::new(x0.max(x1), y),
        }
    }

    /// Creates a vertical segment at `x` spanning `y` coordinates in any
    /// order.
    #[must_use]
    pub fn vertical(x: Coord, y0: Coord, y1: Coord) -> Segment {
        Segment {
            a: Point::new(x, y0.min(y1)),
            b: Point::new(x, y0.max(y1)),
        }
    }

    /// The lexicographically smaller endpoint.
    #[inline]
    #[must_use]
    pub fn a(&self) -> Point {
        self.a
    }

    /// The lexicographically larger endpoint.
    #[inline]
    #[must_use]
    pub fn b(&self) -> Point {
        self.b
    }

    /// The axis the segment runs along.
    ///
    /// Degenerate (single-point) segments report [`Axis::X`].
    #[inline]
    #[must_use]
    pub fn axis(&self) -> Axis {
        if self.a.x == self.b.x && self.a.y != self.b.y {
            Axis::Y
        } else {
            Axis::X
        }
    }

    /// Manhattan length of the segment.
    /// (A degenerate segment is still one point, so there is deliberately
    /// no `is_empty`; see [`Segment::is_degenerate`].)
    #[inline]
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> Coord {
        self.a.manhattan(self.b)
    }

    /// Returns `true` when the segment is a single point.
    #[inline]
    #[must_use]
    pub fn is_degenerate(&self) -> bool {
        self.a == self.b
    }

    /// The extent of the segment along its own axis.
    #[must_use]
    pub fn span(&self) -> Interval {
        match self.axis() {
            Axis::X => Interval::new(self.a.x, self.b.x),
            Axis::Y => Interval::new(self.a.y, self.b.y),
        }
        .expect("endpoints are normalized")
    }

    /// The fixed coordinate on the perpendicular axis.
    #[inline]
    #[must_use]
    pub fn cross(&self) -> Coord {
        match self.axis() {
            Axis::X => self.a.y,
            Axis::Y => self.a.x,
        }
    }

    /// The degenerate bounding rectangle of the segment.
    #[must_use]
    pub fn bounding_rect(&self) -> Rect {
        Rect::from_corners(self.a, self.b).expect("normalized endpoints are in range")
    }

    /// Returns `true` if `p` lies on the segment (endpoints included).
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        self.bounding_rect().contains(p)
    }

    /// The point on the segment nearest to `p` in Manhattan distance.
    #[must_use]
    pub fn closest_point_to(&self, p: Point) -> Point {
        self.bounding_rect().closest_point_to(p)
    }

    /// Manhattan distance from `p` to the segment.
    #[must_use]
    pub fn manhattan_to_point(&self, p: Point) -> Coord {
        self.bounding_rect().manhattan_to_point(p)
    }

    /// The single intersection point of two *perpendicular* segments, if
    /// they cross or touch. Returns `None` for parallel segments.
    #[must_use]
    pub fn crossing(&self, other: &Segment) -> Option<Point> {
        if self.axis() == other.axis() && !self.is_degenerate() && !other.is_degenerate() {
            return None;
        }
        let (h, v) = match (self.axis(), other.axis()) {
            (Axis::X, Axis::Y) => (self, other),
            (Axis::Y, Axis::X) => (other, self),
            // One of them is degenerate; treat the degenerate one as a point.
            _ => {
                if self.is_degenerate() {
                    return other.contains(self.a).then_some(self.a);
                }
                if other.is_degenerate() {
                    return self.contains(other.a).then_some(other.a);
                }
                return None;
            }
        };
        let p = Point::new(v.a.x, h.a.y);
        (h.contains(p) && v.contains(p)).then_some(p)
    }

    /// The overlap of two *collinear* segments, if any. Returns `None` when
    /// the segments are on different lines or axes.
    #[must_use]
    pub fn collinear_overlap(&self, other: &Segment) -> Option<Segment> {
        if self.axis() != other.axis() || self.cross() != other.cross() {
            return None;
        }
        let span = self.span().intersect(&other.span())?;
        Some(match self.axis() {
            Axis::X => Segment::horizontal(self.cross(), span.lo(), span.hi()),
            Axis::Y => Segment::vertical(self.cross(), span.lo(), span.hi()),
        })
    }

    /// The direction of travel from endpoint `a()` to endpoint `b()`, or
    /// `None` for a degenerate segment.
    #[must_use]
    pub fn dir(&self) -> Option<Dir> {
        self.a.dir_toward(self.b)
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -- {}", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_diagonal() {
        assert!(Segment::new(Point::new(0, 0), Point::new(1, 1)).is_err());
    }

    #[test]
    fn normalizes_endpoint_order() {
        let s1 = Segment::new(Point::new(5, 2), Point::new(1, 2)).unwrap();
        let s2 = Segment::new(Point::new(1, 2), Point::new(5, 2)).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(s1.a(), Point::new(1, 2));
    }

    #[test]
    fn axis_and_span() {
        let h = Segment::horizontal(3, 0, 10);
        let v = Segment::vertical(3, 0, 10);
        assert_eq!(h.axis(), Axis::X);
        assert_eq!(v.axis(), Axis::Y);
        assert_eq!(h.span(), Interval::new(0, 10).unwrap());
        assert_eq!(h.cross(), 3);
        assert_eq!(v.cross(), 3);
        assert_eq!(h.len(), 10);
    }

    #[test]
    fn degenerate_segment() {
        let d = Segment::new(Point::new(4, 4), Point::new(4, 4)).unwrap();
        assert!(d.is_degenerate());
        assert_eq!(d.len(), 0);
        assert_eq!(d.dir(), None);
        assert!(d.contains(Point::new(4, 4)));
        assert!(!d.contains(Point::new(4, 5)));
    }

    #[test]
    fn contains_points_on_line_only() {
        let s = Segment::horizontal(5, 0, 10);
        assert!(s.contains(Point::new(0, 5)));
        assert!(s.contains(Point::new(10, 5)));
        assert!(s.contains(Point::new(7, 5)));
        assert!(!s.contains(Point::new(7, 6)));
        assert!(!s.contains(Point::new(11, 5)));
    }

    #[test]
    fn crossing_perpendicular() {
        let h = Segment::horizontal(5, 0, 10);
        let v = Segment::vertical(4, 0, 10);
        assert_eq!(h.crossing(&v), Some(Point::new(4, 5)));
        assert_eq!(v.crossing(&h), Some(Point::new(4, 5)));
        let v_miss = Segment::vertical(20, 0, 10);
        assert_eq!(h.crossing(&v_miss), None);
        // Touching at an endpoint counts.
        let v_touch = Segment::vertical(10, 5, 9);
        assert_eq!(h.crossing(&v_touch), Some(Point::new(10, 5)));
    }

    #[test]
    fn crossing_with_degenerate() {
        let h = Segment::horizontal(5, 0, 10);
        let p_on = Segment::new(Point::new(3, 5), Point::new(3, 5)).unwrap();
        let p_off = Segment::new(Point::new(3, 6), Point::new(3, 6)).unwrap();
        assert_eq!(h.crossing(&p_on), Some(Point::new(3, 5)));
        assert_eq!(h.crossing(&p_off), None);
    }

    #[test]
    fn parallel_segments_do_not_cross() {
        let h1 = Segment::horizontal(5, 0, 10);
        let h2 = Segment::horizontal(6, 0, 10);
        assert_eq!(h1.crossing(&h2), None);
    }

    #[test]
    fn collinear_overlap_cases() {
        let s = Segment::horizontal(5, 0, 10);
        assert_eq!(
            s.collinear_overlap(&Segment::horizontal(5, 5, 15)),
            Some(Segment::horizontal(5, 5, 10))
        );
        assert_eq!(
            s.collinear_overlap(&Segment::horizontal(5, 10, 15)),
            Some(Segment::horizontal(5, 10, 10))
        );
        assert_eq!(s.collinear_overlap(&Segment::horizontal(5, 11, 15)), None);
        assert_eq!(s.collinear_overlap(&Segment::horizontal(6, 0, 10)), None);
        assert_eq!(s.collinear_overlap(&Segment::vertical(5, 0, 10)), None);
    }

    #[test]
    fn closest_point_and_distance() {
        let s = Segment::vertical(4, 0, 10);
        assert_eq!(s.closest_point_to(Point::new(8, 5)), Point::new(4, 5));
        assert_eq!(s.manhattan_to_point(Point::new(8, 5)), 4);
        assert_eq!(s.manhattan_to_point(Point::new(8, 14)), 8);
        assert_eq!(s.manhattan_to_point(Point::new(4, 5)), 0);
    }

    #[test]
    fn display_shows_endpoints() {
        let s = Segment::horizontal(1, 0, 2);
        assert_eq!(s.to_string(), "(0, 1) -- (2, 1)");
    }
}
