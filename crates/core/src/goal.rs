//! Goal sets: where a connection may terminate.
//!
//! A two-point route has a single goal point; a growing multi-terminal net
//! has many candidate goals (every pin of every still-unconnected
//! terminal); and conversely, when searching *from* the tree, the source
//! side contains whole segments. [`GoalSet`] also provides the admissible
//! heuristic (minimum Manhattan distance to any member) and the
//! goal-alignment stop coordinates used by the successor generator.

use gcr_geom::{Coord, Dir, Point, Segment};

/// A set of points and segments at which the search may terminate.
#[derive(Debug, Clone, Default)]
pub struct GoalSet {
    points: Vec<Point>,
    segments: Vec<Segment>,
}

impl GoalSet {
    /// An empty goal set (searches against it fail immediately).
    #[must_use]
    pub fn new() -> GoalSet {
        GoalSet::default()
    }

    /// A single goal point.
    #[must_use]
    pub fn from_point(p: Point) -> GoalSet {
        let mut g = GoalSet::new();
        g.add_point(p);
        g
    }

    /// Adds a goal point.
    pub fn add_point(&mut self, p: Point) {
        self.points.push(p);
    }

    /// Empties the set while keeping its capacity, so a driver can reuse
    /// one `GoalSet` across the connections of a batch (the per-connection
    /// goal rebuild used to be a fresh pair of `Vec`s every time).
    pub fn clear(&mut self) {
        self.points.clear();
        self.segments.clear();
    }

    /// Adds a goal segment (any point on it terminates the search).
    pub fn add_segment(&mut self, s: Segment) {
        if s.is_degenerate() {
            self.points.push(s.a());
        } else {
            self.segments.push(s);
        }
    }

    /// The goal points.
    #[must_use]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The goal segments.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Returns `true` when there is nothing to reach.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty() && self.segments.is_empty()
    }

    /// Returns `true` if `p` is a goal (equals a goal point or lies on a
    /// goal segment).
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        self.points.contains(&p) || self.segments.iter().any(|s| s.contains(p))
    }

    /// The minimum Manhattan distance from `p` to any goal — the paper's
    /// admissible ĥ ("the best you can do using Manhattan geometry").
    ///
    /// Returns `Coord::MAX / 4` for an empty set so the caller's search
    /// fails fast rather than panicking.
    #[must_use]
    pub fn distance_to(&self, p: Point) -> Coord {
        let mut best = Coord::MAX / 4;
        for g in &self.points {
            best = best.min(p.manhattan(*g));
        }
        for s in &self.segments {
            best = best.min(s.manhattan_to_point(p));
        }
        best
    }

    /// Appends to `out` the stop coordinates along a ray from `origin` in
    /// `dir` (travel bounded by the axis coordinate `stop`) at which the
    /// ray aligns with, or crosses, a goal: turning (or stopping) there can
    /// complete a minimal connection.
    ///
    /// For a goal point this is its coordinate on the ray axis; for a goal
    /// segment it is the crossing point if the ray crosses it, plus the
    /// endpoint alignments. The coordinates are neither sorted nor
    /// deduplicated: the successor generator collects them in a buffer of
    /// their own and merges each into the ray's travel-order stop list by
    /// binary search.
    pub fn stops_along_ray_into(&self, origin: Point, dir: Dir, stop: Coord, out: &mut Vec<Coord>) {
        let axis = dir.axis();
        let u0 = origin.coord(axis);
        let positive = dir.sign() > 0;
        let ahead = |c: Coord| {
            if positive {
                c > u0 && c <= stop
            } else {
                c < u0 && c >= stop
            }
        };
        for g in &self.points {
            let c = g.coord(axis);
            if ahead(c) {
                out.push(c);
            }
        }
        if !self.segments.is_empty() {
            let end = origin.with_coord(axis, stop);
            let ray = Segment::new(origin, end).expect("ray is axis-aligned");
            for s in &self.segments {
                if let Some(x) = ray.crossing(s) {
                    let c = x.coord(axis);
                    if ahead(c) {
                        out.push(c);
                    }
                }
                for e in [s.a(), s.b()] {
                    let c = e.coord(axis);
                    if ahead(c) {
                        out.push(c);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_behaviour() {
        let g = GoalSet::new();
        assert!(g.is_empty());
        assert!(!g.contains(Point::new(0, 0)));
        assert!(g.distance_to(Point::new(0, 0)) > 1_000_000);
        let mut out = Vec::new();
        g.stops_along_ray_into(Point::new(0, 0), Dir::East, 100, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn point_goal_distance_and_containment() {
        let g = GoalSet::from_point(Point::new(10, 20));
        assert!(g.contains(Point::new(10, 20)));
        assert!(!g.contains(Point::new(10, 21)));
        assert_eq!(g.distance_to(Point::new(0, 0)), 30);
    }

    #[test]
    fn multi_goal_distance_is_minimum() {
        let mut g = GoalSet::from_point(Point::new(10, 0));
        g.add_point(Point::new(0, 3));
        assert_eq!(g.distance_to(Point::new(0, 0)), 3);
    }

    #[test]
    fn segment_goal_containment_and_distance() {
        let mut g = GoalSet::new();
        g.add_segment(Segment::horizontal(5, 0, 10));
        assert!(g.contains(Point::new(7, 5)));
        assert!(!g.contains(Point::new(7, 6)));
        assert_eq!(g.distance_to(Point::new(7, 9)), 4);
        assert_eq!(g.distance_to(Point::new(13, 5)), 3);
    }

    #[test]
    fn degenerate_segment_becomes_point() {
        let mut g = GoalSet::new();
        g.add_segment(Segment::new(Point::new(4, 4), Point::new(4, 4)).unwrap());
        assert_eq!(g.points().len(), 1);
        assert!(g.segments().is_empty());
    }

    #[test]
    fn ray_stops_for_point_goals() {
        let g = GoalSet::from_point(Point::new(30, 99));
        let mut out = Vec::new();
        // Eastward ray at y=0: alignment at x=30.
        g.stops_along_ray_into(Point::new(0, 0), Dir::East, 100, &mut out);
        assert_eq!(out, [30]);
        // Stops short of 30: no alignment.
        out.clear();
        g.stops_along_ray_into(Point::new(0, 0), Dir::East, 20, &mut out);
        assert!(out.is_empty());
        // Westward from the right.
        g.stops_along_ray_into(Point::new(50, 0), Dir::West, 0, &mut out);
        assert_eq!(out, [30]);
        // Behind the origin: nothing, and the buffer is appended to.
        g.stops_along_ray_into(Point::new(40, 0), Dir::East, 100, &mut out);
        assert_eq!(out, [30]);
    }

    #[test]
    fn ray_stops_for_goal_on_the_ray_line() {
        let g = GoalSet::from_point(Point::new(30, 0));
        // The goal is on the ray itself; the stop is the goal coordinate.
        let mut out = Vec::new();
        g.stops_along_ray_into(Point::new(0, 0), Dir::East, 100, &mut out);
        assert_eq!(out, [30]);
    }

    #[test]
    fn ray_stops_for_crossing_segment() {
        let mut g = GoalSet::new();
        g.add_segment(Segment::vertical(40, -10, 10));
        // Eastward ray at y=0 crosses the segment at x=40, where both
        // its endpoints align too: one entry each, unmerged.
        let mut out = Vec::new();
        g.stops_along_ray_into(Point::new(0, 0), Dir::East, 100, &mut out);
        assert_eq!(out, [40, 40, 40]);
    }

    #[test]
    fn ray_stops_for_parallel_segment_are_endpoints() {
        let mut g = GoalSet::new();
        g.add_segment(Segment::horizontal(50, 20, 60));
        // Eastward ray at y=0, parallel to the goal segment: align with
        // its endpoints.
        let mut out = Vec::new();
        g.stops_along_ray_into(Point::new(0, 0), Dir::East, 100, &mut out);
        assert_eq!(out, [20, 60]);
    }

    #[test]
    fn vertical_ray_alignments() {
        let mut g = GoalSet::from_point(Point::new(99, 25));
        g.add_segment(Segment::horizontal(70, 0, 10));
        // Point alignment at y=25; segment crossing at y=70 (the ray at
        // x=5 crosses the horizontal segment spanning x 0..10), where the
        // segment's endpoints align too.
        let mut out = Vec::new();
        g.stops_along_ray_into(Point::new(5, 0), Dir::North, 100, &mut out);
        assert_eq!(out, [25, 70, 70, 70]);
    }
}
