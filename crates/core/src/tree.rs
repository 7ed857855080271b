//! The growing routing tree of a multi-terminal net.
//!
//! The paper's Steiner approximation: *"The modification of the spanning
//! tree algorithm considers all line segments in the spanning tree being
//! built as potential connection points. A spanning tree would only
//! consider the pins (vertices) as potential connection points."*
//! [`RouteTree`] holds the segments and points connected so far and can
//! seed a multi-source search from **every point of every segment** —
//! realized finitely by seeding the canonical departure points (segment
//! endpoints, goal projections, and obstacle-corner alignments).

use gcr_geom::{Axis, Coord, PlaneIndex, Point, Polyline, Segment};
use gcr_search::{LexCost, PathCost};

use crate::{GoalSet, RouteState};

/// The connected set of a partially routed net: wire segments plus
/// isolated points (pins connected with zero wire).
#[derive(Debug, Clone, Default)]
pub struct RouteTree {
    points: Vec<Point>,
    segments: Vec<Segment>,
}

impl RouteTree {
    /// An empty tree.
    #[must_use]
    pub fn new() -> RouteTree {
        RouteTree::default()
    }

    /// The isolated points (connected pins, junctions).
    #[must_use]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The wire segments.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Returns `true` when nothing is connected yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty() && self.segments.is_empty()
    }

    /// Adds an isolated point (deduplicated).
    pub fn add_point(&mut self, p: Point) {
        if !self.points.contains(&p) {
            self.points.push(p);
        }
    }

    /// Adds every segment of a polyline (single-point polylines add their
    /// point).
    pub fn add_polyline(&mut self, polyline: &Polyline) {
        if polyline.points().len() == 1 {
            self.add_point(polyline.start());
            return;
        }
        for seg in polyline.segments() {
            if !seg.is_degenerate() {
                self.segments.push(seg);
            }
        }
    }

    /// Returns `true` if `p` lies on the tree (on a segment or equal to a
    /// point).
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        self.points.contains(&p) || self.segments.iter().any(|s| s.contains(p))
    }

    /// Total wire length of the tree (overlapping segments count twice; the
    /// router never produces overlaps within one net because connections
    /// terminate on first contact with the tree).
    #[must_use]
    pub fn wire_length(&self) -> Coord {
        self.segments.iter().map(Segment::len).sum()
    }

    /// The multi-source seed states for the next connection: "all line
    /// segments in the spanning tree being built" are potential connection
    /// points, realized by the canonical departure points —
    ///
    /// * every isolated point and segment endpoint,
    /// * the projection of every goal point onto every segment,
    /// * every obstacle-corner coordinate crossing a segment (a taut path
    ///   leaving the segment turns at such an alignment).
    ///
    /// All seeds carry zero initial cost: leaving the existing tree is
    /// free. Clears the staging buffer `pts` and `out`, then fills `out`
    /// with the seed states in sorted, deduplicated order. The hot net
    /// driver threads the buffers through [`SearchScratch`](crate::SearchScratch),
    /// so repeated tree growth allocates nothing once the high-water
    /// capacities are reached.
    pub fn seeds_into(
        &self,
        plane: &dyn PlaneIndex,
        goals: &GoalSet,
        pts: &mut Vec<Point>,
        out: &mut Vec<(RouteState, LexCost)>,
    ) {
        pts.clear();
        pts.extend(self.points.iter().copied());
        // Each axis's corner coordinates are fetched at most once: the
        // query collects and sorts every obstacle edge.
        let (mut xs, mut ys) = (None, None);
        for seg in &self.segments {
            pts.push(seg.a());
            pts.push(seg.b());
            for g in goals.points() {
                pts.push(seg.closest_point_to(*g));
            }
            let axis = seg.axis();
            let span = seg.span();
            let coords = match axis {
                Axis::X => &mut xs,
                Axis::Y => &mut ys,
            }
            .get_or_insert_with(|| plane.corner_coords(axis));
            let lo = coords.partition_point(|&c| c < span.lo());
            let hi = coords.partition_point(|&c| c <= span.hi());
            pts.extend(coords[lo..hi].iter().map(|&c| seg.a().with_coord(axis, c)));
        }
        // Sorting + dedup reproduces the historical `BTreeSet<Point>`
        // iteration order exactly (both are `Point`'s total order).
        pts.sort_unstable();
        pts.dedup();
        out.clear();
        out.extend(
            pts.iter()
                .map(|&p| (RouteState::source(p), LexCost::zero())),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_geom::{Plane, Rect};

    #[test]
    fn empty_tree() {
        let t = RouteTree::new();
        assert!(t.is_empty());
        assert_eq!(t.wire_length(), 0);
        assert!(!t.contains(Point::new(0, 0)));
    }

    #[test]
    fn add_point_dedups() {
        let mut t = RouteTree::new();
        t.add_point(Point::new(1, 1));
        t.add_point(Point::new(1, 1));
        assert_eq!(t.points().len(), 1);
        assert!(t.contains(Point::new(1, 1)));
    }

    #[test]
    fn add_polyline_and_metrics() {
        let mut t = RouteTree::new();
        let p =
            Polyline::new(vec![Point::new(0, 0), Point::new(10, 0), Point::new(10, 5)]).unwrap();
        t.add_polyline(&p);
        assert_eq!(t.segments().len(), 2);
        assert_eq!(t.wire_length(), 15);
        assert!(t.contains(Point::new(5, 0)));
        assert!(t.contains(Point::new(10, 3)));
        assert!(!t.contains(Point::new(5, 1)));
    }

    #[test]
    fn single_point_polyline_becomes_point() {
        let mut t = RouteTree::new();
        t.add_polyline(&Polyline::single(Point::new(4, 4)));
        assert_eq!(t.points().len(), 1);
        assert!(t.segments().is_empty());
    }

    #[test]
    fn seeds_include_endpoints_projections_and_corners() {
        let mut plane = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        plane.add_obstacle(Rect::new(30, 50, 40, 60).unwrap());
        let mut t = RouteTree::new();
        t.add_polyline(&Polyline::new(vec![Point::new(0, 10), Point::new(80, 10)]).unwrap());
        let goals = GoalSet::from_point(Point::new(55, 90));
        let (mut scratch, mut seeds) = (Vec::new(), Vec::new());
        t.seeds_into(&plane, &goals, &mut scratch, &mut seeds);
        let pts: Vec<Point> = seeds.iter().map(|(s, _)| s.point).collect();
        assert!(pts.contains(&Point::new(0, 10))); // endpoint
        assert!(pts.contains(&Point::new(80, 10))); // endpoint
        assert!(pts.contains(&Point::new(55, 10))); // goal projection
        assert!(pts.contains(&Point::new(30, 10))); // obstacle corner x
        assert!(pts.contains(&Point::new(40, 10))); // obstacle corner x
        for (s, c) in &seeds {
            assert_eq!(s.arrival, None);
            assert_eq!(*c, LexCost::zero());
        }

        // Two segments on each axis: every segment takes the corner
        // coordinates inside its own span, endpoints included.
        let mut t = RouteTree::new();
        t.add_polyline(
            &Polyline::new(vec![
                Point::new(0, 10),
                Point::new(80, 10),
                Point::new(80, 70),
                Point::new(20, 70),
                Point::new(20, 95),
            ])
            .unwrap(),
        );
        t.seeds_into(&plane, &goals, &mut scratch, &mut seeds);
        let pts: Vec<Point> = seeds.iter().map(|(s, _)| s.point).collect();
        let want = [
            (0, 10),  // endpoint and corner x = 0 (plane boundary)
            (20, 70), // endpoint
            (20, 90), // goal projection
            (20, 95), // endpoint
            (30, 10), // corner x
            (30, 70), // corner x
            (40, 10), // corner x
            (40, 70), // corner x
            (55, 10), // goal projection
            (55, 70), // goal projection
            (80, 10), // endpoint
            (80, 50), // corner y
            (80, 60), // corner y
            (80, 70), // endpoint and goal projection
        ]
        .map(|(x, y)| Point::new(x, y));
        assert_eq!(pts, want);
    }
}
