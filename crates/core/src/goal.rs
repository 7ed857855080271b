//! Goal sets: where a connection may terminate.
//!
//! A two-point route has a single goal point; a growing multi-terminal net
//! has many (every pin of every still-unconnected terminal). [`GoalSet`]
//! also provides the admissible heuristic (minimum Manhattan distance to
//! any goal) and the goal-alignment stop coordinates used by the
//! successor generator.

use gcr_geom::{Coord, Dir, Point};

/// The points at which the search may terminate.
#[derive(Debug, Clone, Default)]
pub struct GoalSet {
    points: Vec<Point>,
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
    /// one `GoalSet` across the connections of a batch.
    pub fn clear(&mut self) {
        self.points.clear();
    }

    /// The goal points.
    #[must_use]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Returns `true` when there is nothing to reach.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Returns `true` if `p` is a goal point.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        self.points.contains(&p)
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
        best
    }

    /// Appends to `out` the stop coordinates along a ray from `origin` in
    /// `dir` (travel bounded by the axis coordinate `stop`) at which the
    /// ray aligns with a goal: turning (or stopping) there can complete a
    /// minimal connection.
    ///
    /// The alignment is each goal's coordinate on the ray axis. The
    /// coordinates are neither sorted nor deduplicated: the successor
    /// generator collects them in a buffer of their own and merges each
    /// into the ray's travel-order stop list by binary search.
    pub fn stops_along_ray_into(&self, origin: Point, dir: Dir, stop: Coord, out: &mut Vec<Coord>) {
        let axis = dir.axis();
        let u0 = origin.coord(axis);
        let positive = dir.sign() > 0;
        for g in &self.points {
            let c = g.coord(axis);
            let ahead = if positive {
                c > u0 && c <= stop
            } else {
                c < u0 && c >= stop
            };
            if ahead {
                out.push(c);
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
    fn vertical_ray_alignments() {
        let g = GoalSet::from_point(Point::new(99, 25));
        // Point alignment at y=25.
        let mut out = Vec::new();
        g.stops_along_ray_into(Point::new(5, 0), Dir::North, 100, &mut out);
        assert_eq!(out, [25]);
    }
}
