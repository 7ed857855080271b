//! The obstacle plane: the routing surface and its ray-tracing queries.
//!
//! This module is the geometric heart of the reproduction. The paper
//! describes a data structure of points "linked to reflect their topological
//! order in both *x* and *y*" over which "an efficient means of ray-tracing
//! is used to expand the frontiers of the search". [`Plane`] defines that
//! service with three queries, each answering coordinates only:
//!
//! * [`Plane::ray_hit`] — how far can a wire travel from a point in a
//!   direction before an obstacle (or the boundary) stops it; this is the
//!   "extend any path as far … as is feasible" primitive,
//! * [`Plane::corner_candidates_into`] — the obstacle-corner coordinates
//!   along a ray at which a minimal path may usefully turn; this is the
//!   "hug cells as they are encountered" primitive,
//! * [`Plane::segment_free`] / [`Plane::point_free`] — legality checks.
//!
//! [`Plane`] answers every query by a linear scan over all of its
//! rectangles. It is the **reference**: the production index,
//! [`ShardedPlane`](crate::ShardedPlane), keeps its rectangles in a
//! `Plane` and must answer every query exactly as the scan does.
//!
//! Wires may run *on* obstacle boundaries (they hug them); only the open
//! interior of an obstacle blocks. Obstacles added from rectilinear
//! polygons are decomposed into rectangles sharing one [`ObstacleId`].

use std::fmt;

use crate::{Axis, Coord, Dir, Interval, Point, Rect, RectilinearPolygon};

/// Identifies one obstacle (cell) in a [`Plane`].
///
/// A polygonal obstacle decomposes into several rectangles that all carry
/// the same id.
pub type ObstacleId = usize;

/// Result of casting a ray from a point: where movement must stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RayHit {
    /// The coordinate on the ray's axis at which travel stops: the entry
    /// face of the nearest blocking obstacle, or the plane boundary. Equal
    /// to the origin coordinate when the ray is blocked immediately.
    pub stop: Coord,
    /// Distance travelled from the origin to `stop` (always ≥ 0).
    pub distance: Coord,
}

/// The entry-face coordinate at which `r` blocks a ray travelling along
/// `axis` (perpendicular coordinate `w`) from `u0` toward `bound`, or
/// `None` when it does not block.
///
/// This single predicate defines the blocking semantics for **both**
/// planes (the reference's linear scan and the sharded bucket walk), so
/// they cannot drift apart: an obstacle blocks when its open
/// perpendicular span straddles the ray line and its interior lies
/// strictly ahead of the origin and strictly before the boundary.
pub(crate) fn ray_entry(
    r: &Rect,
    axis: Axis,
    perp: Axis,
    positive: bool,
    u0: Coord,
    w: Coord,
    bound: Coord,
) -> Option<Coord> {
    if r.is_degenerate() || !r.span(perp).contains_open(w) {
        return None;
    }
    let m = r.span(axis);
    if positive {
        (m.hi() > u0 && m.lo() >= u0 && m.lo() < bound).then(|| m.lo())
    } else {
        (m.lo() < u0 && m.hi() <= u0 && m.hi() > bound).then(|| m.hi())
    }
}

/// Whether the faces of `r` anchor turns from the ray line at
/// perpendicular coordinate `w`: `r` is non-degenerate and lies wholly on
/// one side of the line, touching it at most. A rectangle that straddles
/// the line blocks the ray instead, and a degenerate one never anchors.
/// Shared by both planes' corner queries.
pub(crate) fn anchors(r: &Rect, perp: Axis, w: Coord) -> bool {
    !r.is_degenerate() && !r.span(perp).contains_open(w)
}

/// The routing surface: a bounded plane containing rectangular obstacles,
/// queried by linear scan (the reference every index must match).
///
/// ```
/// use gcr_geom::{Dir, Plane, Point, Rect};
/// # fn main() -> Result<(), gcr_geom::GeomError> {
/// let mut plane = Plane::new(Rect::new(0, 0, 100, 100)?);
/// plane.add_obstacle(Rect::new(30, 30, 70, 70)?);
///
/// let hit = plane.ray_hit(Point::new(10, 50), Dir::East);
/// assert_eq!((hit.stop, hit.distance), (30, 20));
///
/// // Eastward along y=20 the block anchors turns at both its x faces.
/// let mut corners = Vec::new();
/// plane.corner_candidates_into(Point::new(10, 20), Dir::East, 100, &mut corners);
/// assert_eq!(corners, [30, 70]);
///
/// // Travelling along the block's boundary is legal ("hugging").
/// assert!(plane.segment_free(Point::new(30, 30), Point::new(30, 70)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Plane {
    bounds: Rect,
    rects: Vec<(Rect, ObstacleId)>,
    /// Number of obstacles (polygons count once). Obstacles are never
    /// removed, so this is also the next id to allocate: ids run 0, 1,
    /// 2, … in insertion order.
    obstacle_count: usize,
}

impl Plane {
    /// Creates an empty plane with the given routing boundary.
    #[must_use]
    pub fn new(bounds: Rect) -> Plane {
        Plane {
            bounds,
            rects: Vec::new(),
            obstacle_count: 0,
        }
    }

    /// The routing boundary.
    #[inline]
    #[must_use]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Adds a rectangular obstacle and returns its id.
    ///
    /// Degenerate rectangles are accepted but never block (their interior is
    /// empty).
    pub fn add_obstacle(&mut self, rect: Rect) -> ObstacleId {
        let id = self.obstacle_count;
        self.obstacle_count += 1;
        self.rects.push((rect, id));
        id
    }

    /// Adds a rectilinear-polygon obstacle (decomposed into rectangles that
    /// share one id) and returns the id.
    pub fn add_polygon(&mut self, polygon: &RectilinearPolygon) -> ObstacleId {
        let id = self.obstacle_count;
        self.obstacle_count += 1;
        // The overlapping cover is required here: a pure partition would
        // leave interior seams a wire could legally run through.
        let pieces = polygon.decompose_overlapping();
        self.rects.extend(pieces.into_iter().map(|r| (r, id)));
        id
    }

    /// Translates every rectangle of obstacle `id` by `(dx, dy)` in
    /// place, returning `false` when the id is unknown.
    ///
    /// This is the incremental-layout mutation an ECO flow makes when a
    /// cell moves: the rectangle *slots* are overwritten, so the rect list
    /// order — and with it every tie-break that depends on insertion
    /// order — stays exactly what a fresh plane built from the mutated
    /// layout would have.
    pub fn translate_obstacle(&mut self, id: ObstacleId, dx: Coord, dy: Coord) -> bool {
        let mut found = false;
        for (r, _) in self.rects.iter_mut().filter(|(_, i)| *i == id) {
            *r = r.translate(dx, dy);
            found = true;
        }
        found
    }

    /// Number of obstacles (polygons count once).
    #[inline]
    #[must_use]
    pub fn obstacle_count(&self) -> usize {
        self.obstacle_count
    }

    /// All obstacle rectangles with their owning obstacle ids.
    #[inline]
    #[must_use]
    pub fn rects(&self) -> &[(Rect, ObstacleId)] {
        &self.rects
    }

    /// Returns `true` if `p` is inside the routing boundary (closed).
    #[inline]
    #[must_use]
    pub fn in_bounds(&self, p: Point) -> bool {
        self.bounds.contains(p)
    }

    /// Returns `true` if `p` is a legal wire position: inside the boundary
    /// and not strictly inside any obstacle.
    #[must_use]
    pub fn point_free(&self, p: Point) -> bool {
        self.in_bounds(p) && !self.rects.iter().any(|(r, _)| r.contains_open(p))
    }

    /// Returns `true` if the axis-aligned segment from `a` to `b` is a legal
    /// wire: fully in bounds and intersecting no obstacle interior.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `a` and `b` are not axis-aligned.
    #[must_use]
    pub fn segment_free(&self, a: Point, b: Point) -> bool {
        debug_assert!(
            a.is_rectilinear_with(b),
            "segment_free requires axis-aligned endpoints"
        );
        if !self.in_bounds(a) || !self.in_bounds(b) {
            return false;
        }
        if a == b {
            return self.point_free(a);
        }
        let axis = if a.y == b.y { Axis::X } else { Axis::Y };
        let perp = axis.perpendicular();
        let w = a.coord(perp);
        let span = Interval::spanning(a.coord(axis), b.coord(axis))
            .expect("coordinates validated by in_bounds");
        !self.rects.iter().any(|(r, _)| {
            !r.is_degenerate() && r.span(perp).contains_open(w) && r.span(axis).overlaps_open(&span)
        })
    }

    /// Casts a ray from `origin` in direction `dir` and reports where travel
    /// must stop: at the entry face of the first blocking obstacle or at the
    /// plane boundary.
    ///
    /// The origin itself must be a legal wire position; a ray that would
    /// immediately enter an obstacle (origin on its face, moving inward)
    /// reports `distance == 0`.
    #[must_use]
    pub fn ray_hit(&self, origin: Point, dir: Dir) -> RayHit {
        debug_assert!(self.point_free(origin), "ray origin must be free: {origin}");
        let axis = dir.axis();
        let perp = axis.perpendicular();
        let u0 = origin.coord(axis);
        let w = origin.coord(perp);
        let positive = dir.sign() > 0;
        let bound = if positive {
            self.bounds.span(axis).hi()
        } else {
            self.bounds.span(axis).lo()
        };
        let entries = self
            .rects
            .iter()
            .filter_map(|(r, _)| ray_entry(r, axis, perp, positive, u0, w, bound));
        let nearest = if positive {
            entries.min()
        } else {
            entries.max()
        };
        let stop = nearest.unwrap_or(bound);
        // An origin on a face, moving inward, is blocked at once: then
        // stop lands on u0 and distance is 0.
        let distance = if positive { stop - u0 } else { u0 - stop };
        debug_assert!(distance >= 0, "ray travelled backwards");
        RayHit { stop, distance }
    }

    /// Clears `out` and fills it with the obstacle-corner coordinates along
    /// a ray from `origin` in `dir`, up to and including `stop` (normally
    /// the [`RayHit::stop`] of the same ray): distinct, in travel order
    /// (nearest to the origin first).
    ///
    /// A face coordinate anchors a turn when its obstacle lies wholly on
    /// one side of the ray line, so that a path can hug it by turning
    /// toward it. Obstacles that straddle the ray line block it and never
    /// anchor.
    pub fn corner_candidates_into(
        &self,
        origin: Point,
        dir: Dir,
        stop: Coord,
        out: &mut Vec<Coord>,
    ) {
        out.clear();
        let axis = dir.axis();
        let perp = axis.perpendicular();
        let u0 = origin.coord(axis);
        let w = origin.coord(perp);
        let positive = dir.sign() > 0;
        // Positive rays take coordinates in (u0, stop], negative rays
        // [stop, u0).
        let ahead = |c: Coord| {
            if positive {
                c > u0 && c <= stop
            } else {
                c < u0 && c >= stop
            }
        };
        for (r, _) in &self.rects {
            if anchors(r, perp, w) {
                let m = r.span(axis);
                out.extend([m.lo(), m.hi()].into_iter().filter(|&c| ahead(c)));
            }
        }
        if positive {
            out.sort_unstable();
        } else {
            out.sort_unstable_by(|a, b| b.cmp(a));
        }
        out.dedup();
    }

    /// The sorted, deduplicated coordinates of all obstacle edges on `axis`,
    /// including the plane boundary. This is the coordinate set of the
    /// Hanan-style "escape grid"; the gridless search touches only a small
    /// subset of it.
    #[must_use]
    pub fn corner_coords(&self, axis: Axis) -> Vec<Coord> {
        let mut coords: Vec<Coord> = Vec::with_capacity(self.rects.len() * 2 + 2);
        coords.push(self.bounds.span(axis).lo());
        coords.push(self.bounds.span(axis).hi());
        for (r, _) in &self.rects {
            coords.push(r.span(axis).lo());
            coords.push(r.span(axis).hi());
        }
        coords.sort_unstable();
        coords.dedup();
        coords
    }

    /// Returns `true` if an entire polyline is a legal wire.
    #[must_use]
    pub fn polyline_free(&self, polyline: &crate::Polyline) -> bool {
        let pts = polyline.points();
        if pts.len() == 1 {
            return self.point_free(pts[0]);
        }
        pts.windows(2).all(|w| self.segment_free(w[0], w[1]))
    }

    /// The first obstacle whose closed rectangle contains `p`, if any
    /// (boundary contact counts). Useful for mapping pins back to cells.
    #[must_use]
    pub fn obstacle_at(&self, p: Point) -> Option<ObstacleId> {
        self.rects
            .iter()
            .find(|(r, _)| r.contains(p))
            .map(|(_, id)| *id)
    }
}

impl fmt::Display for Plane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plane {} with {} obstacle(s)",
            self.bounds, self.obstacle_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane_one_block() -> (Plane, ObstacleId) {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        let id = p.add_obstacle(Rect::new(30, 30, 70, 70).unwrap());
        (p, id)
    }

    fn corners(p: &Plane, origin: Point, dir: Dir, stop: Coord) -> Vec<Coord> {
        let mut out = vec![-1];
        p.corner_candidates_into(origin, dir, stop, &mut out);
        out
    }

    #[test]
    fn point_free_semantics() {
        let (p, _) = plane_one_block();
        assert!(p.point_free(Point::new(0, 0)));
        assert!(p.point_free(Point::new(30, 30))); // corner contact allowed
        assert!(p.point_free(Point::new(30, 50))); // face contact allowed
        assert!(!p.point_free(Point::new(50, 50))); // interior
        assert!(!p.point_free(Point::new(101, 50))); // out of bounds
    }

    #[test]
    fn segment_free_semantics() {
        let (p, _) = plane_one_block();
        // Crossing the interior is illegal.
        assert!(!p.segment_free(Point::new(0, 50), Point::new(100, 50)));
        // Hugging the south face is legal.
        assert!(p.segment_free(Point::new(0, 30), Point::new(100, 30)));
        // Vertical hug of the west face.
        assert!(p.segment_free(Point::new(30, 0), Point::new(30, 100)));
        // Clear of the block entirely.
        assert!(p.segment_free(Point::new(0, 10), Point::new(100, 10)));
        // Stopping exactly at the face is legal.
        assert!(p.segment_free(Point::new(0, 50), Point::new(30, 50)));
        // Entering by one unit is not.
        assert!(!p.segment_free(Point::new(0, 50), Point::new(31, 50)));
        // Leaving the plane is not.
        assert!(!p.segment_free(Point::new(0, 10), Point::new(101, 10)));
    }

    #[test]
    fn ray_hits_block_face() {
        let (p, _) = plane_one_block();
        let hit = p.ray_hit(Point::new(0, 50), Dir::East);
        assert_eq!(
            hit,
            RayHit {
                stop: 30,
                distance: 30
            }
        );
        let hit = p.ray_hit(Point::new(100, 50), Dir::West);
        assert_eq!(
            hit,
            RayHit {
                stop: 70,
                distance: 30
            }
        );
        let hit = p.ray_hit(Point::new(50, 0), Dir::North);
        assert_eq!(
            hit,
            RayHit {
                stop: 30,
                distance: 30
            }
        );
        let hit = p.ray_hit(Point::new(50, 100), Dir::South);
        assert_eq!(
            hit,
            RayHit {
                stop: 70,
                distance: 30
            }
        );
    }

    #[test]
    fn ray_reaches_boundary_when_clear() {
        let (p, _) = plane_one_block();
        let hit = p.ray_hit(Point::new(0, 10), Dir::East);
        assert_eq!(
            hit,
            RayHit {
                stop: 100,
                distance: 100
            }
        );
        // Along the face line: hugging, not blocked.
        let hit = p.ray_hit(Point::new(0, 30), Dir::East);
        assert_eq!(
            hit,
            RayHit {
                stop: 100,
                distance: 100
            }
        );
    }

    #[test]
    fn ray_from_face_moving_inward_stops_immediately() {
        let (p, _) = plane_one_block();
        let hit = p.ray_hit(Point::new(30, 50), Dir::East);
        assert_eq!(
            hit,
            RayHit {
                stop: 30,
                distance: 0
            }
        );
        let hit = p.ray_hit(Point::new(70, 50), Dir::West);
        assert_eq!(
            hit,
            RayHit {
                stop: 70,
                distance: 0
            }
        );
    }

    #[test]
    fn ray_from_face_moving_away_is_clear() {
        let (p, _) = plane_one_block();
        let hit = p.ray_hit(Point::new(30, 50), Dir::West);
        assert_eq!(
            hit,
            RayHit {
                stop: 0,
                distance: 30
            }
        );
    }

    #[test]
    fn nearest_of_two_blockers_wins() {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        p.add_obstacle(Rect::new(50, 40, 60, 60).unwrap());
        p.add_obstacle(Rect::new(20, 40, 30, 60).unwrap());
        let hit = p.ray_hit(Point::new(0, 50), Dir::East);
        assert_eq!((hit.stop, hit.distance), (20, 20));
        let hit = p.ray_hit(Point::new(100, 50), Dir::West);
        assert_eq!((hit.stop, hit.distance), (60, 40));
    }

    #[test]
    fn degenerate_obstacles_never_block() {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        p.add_obstacle(Rect::new(50, 0, 50, 100).unwrap()); // zero width
        let hit = p.ray_hit(Point::new(0, 50), Dir::East);
        assert_eq!(hit.stop, 100);
        assert!(p.segment_free(Point::new(0, 50), Point::new(100, 50)));
        assert!(corners(&p, Point::new(0, 50), Dir::East, 100).is_empty());
    }

    #[test]
    fn corner_candidates_from_both_sides_in_travel_order() {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        p.add_obstacle(Rect::new(20, 60, 40, 80).unwrap()); // above the ray
        p.add_obstacle(Rect::new(50, 10, 65, 40).unwrap()); // below it
        let hit = p.ray_hit(Point::new(0, 50), Dir::East);
        assert_eq!(hit.stop, 100);
        assert_eq!(
            corners(&p, Point::new(0, 50), Dir::East, hit.stop),
            [20, 40, 50, 65]
        );
    }

    #[test]
    fn corner_candidates_respect_stop_and_direction() {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        p.add_obstacle(Rect::new(20, 60, 40, 80).unwrap());
        // Stop short of the second corner.
        assert_eq!(corners(&p, Point::new(0, 50), Dir::East, 30), [20]);
        // Westward from the right side sees them in reverse order.
        assert_eq!(corners(&p, Point::new(100, 50), Dir::West, 0), [40, 20]);
    }

    #[test]
    fn corner_candidates_exclude_straddling_blockers() {
        let (p, _) = plane_one_block();
        // The block straddles y=50, so it blocks rather than anchors.
        assert!(corners(&p, Point::new(0, 50), Dir::East, 30).is_empty());
    }

    #[test]
    fn touching_obstacle_anchors_from_the_face_line() {
        let (p, _) = plane_one_block();
        // Rays along the south and north face lines (y=30, y=70): the
        // block lies wholly on one side and anchors both x faces.
        for y in [30, 70] {
            assert_eq!(corners(&p, Point::new(0, y), Dir::East, 100), [30, 70]);
        }
    }

    #[test]
    fn vertical_ray_candidates() {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        p.add_obstacle(Rect::new(60, 20, 80, 40).unwrap());
        assert_eq!(corners(&p, Point::new(50, 0), Dir::North, 100), [20, 40]);
        assert_eq!(corners(&p, Point::new(50, 100), Dir::South, 0), [40, 20]);
    }

    #[test]
    fn shared_face_coordinates_appear_once() {
        // Faces at x=20 on both sides of the ray, and x=40 twice above it.
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        p.add_obstacle(Rect::new(20, 60, 40, 70).unwrap());
        p.add_obstacle(Rect::new(20, 10, 30, 40).unwrap());
        p.add_obstacle(Rect::new(40, 80, 45, 90).unwrap());
        assert_eq!(
            corners(&p, Point::new(0, 50), Dir::East, 100),
            [20, 30, 40, 45]
        );
    }

    #[test]
    fn polygon_obstacle_shares_one_id() {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        let l = RectilinearPolygon::new(vec![
            Point::new(20, 20),
            Point::new(60, 20),
            Point::new(60, 40),
            Point::new(40, 40),
            Point::new(40, 60),
            Point::new(20, 60),
        ])
        .unwrap();
        let id = p.add_polygon(&l);
        assert_eq!(p.obstacle_count(), 1);
        assert!(p.rects().len() >= 2);
        assert!(p.rects().iter().all(|(_, i)| *i == id));
        // Ids count obstacles, not rectangles.
        assert_eq!(p.add_obstacle(Rect::new(70, 70, 80, 80).unwrap()), id + 1);
        assert_eq!(p.obstacle_count(), 2);
        // The notch interior (x in 40..60, y in 40..60) is free.
        assert!(p.point_free(Point::new(50, 50)));
        // A point inside the lower arm of the L is blocked.
        assert!(!p.point_free(Point::new(30, 30)));
    }

    #[test]
    fn polygon_interior_seams_are_blocked() {
        // Regression: a U-shaped cell decomposed into a pure partition
        // leaves zero-width seams between the pieces (e.g. at the arm/base
        // joints); a wire must NOT be able to run through the cell along
        // such a seam. The overlapping decomposition closes them.
        let mut p = Plane::new(Rect::new(0, 0, 200, 120).unwrap());
        let u = RectilinearPolygon::new(vec![
            Point::new(100, 16),
            Point::new(180, 16),
            Point::new(180, 100),
            Point::new(156, 100),
            Point::new(156, 44),
            Point::new(124, 44),
            Point::new(124, 100),
            Point::new(100, 100),
        ])
        .unwrap();
        p.add_polygon(&u);
        // The x-slab seam at x=124 inside the base:
        assert!(!p.point_free(Point::new(124, 30)));
        assert!(!p.segment_free(Point::new(124, 16), Point::new(124, 44)));
        // The y-slab seam at y=44 inside the left arm:
        assert!(!p.point_free(Point::new(110, 44)));
        assert!(!p.segment_free(Point::new(100, 44), Point::new(124, 44)));
        // True boundary and cavity stay legal.
        assert!(p.point_free(Point::new(100, 50))); // west face
        assert!(p.point_free(Point::new(140, 44))); // cavity floor
        assert!(p.point_free(Point::new(140, 80))); // cavity interior
        assert!(p.segment_free(Point::new(124, 44), Point::new(156, 44)));
        // Rays must not enter through a seam either. x=124 is the arm's
        // true east face: the ray legally hugs it down the cavity and
        // stops on the base (y=44), not inside it.
        let hit = p.ray_hit(Point::new(124, 110), Dir::South);
        assert_eq!(hit.stop, 44, "ray hugs the face, then stops on the base");
        // A column strictly inside the arm stops on the arm's top face.
        let hit = p.ray_hit(Point::new(110, 110), Dir::South);
        assert_eq!(hit.stop, 100, "ray must stop on the arm's top face");
    }

    #[test]
    fn corner_coords_include_bounds() {
        let (p, _) = plane_one_block();
        assert_eq!(p.corner_coords(Axis::X), vec![0, 30, 70, 100]);
        assert_eq!(p.corner_coords(Axis::Y), vec![0, 30, 70, 100]);
    }

    #[test]
    fn obstacle_at_maps_boundary_points() {
        let (p, id) = plane_one_block();
        assert_eq!(p.obstacle_at(Point::new(30, 30)), Some(id));
        assert_eq!(p.obstacle_at(Point::new(50, 50)), Some(id));
        assert_eq!(p.obstacle_at(Point::new(0, 0)), None);
    }

    #[test]
    fn polyline_free_checks_every_leg() {
        let (p, _) = plane_one_block();
        let ok = crate::Polyline::new(vec![
            Point::new(0, 0),
            Point::new(0, 30),
            Point::new(100, 30),
        ])
        .unwrap();
        assert!(p.polyline_free(&ok));
        let bad = crate::Polyline::new(vec![Point::new(0, 50), Point::new(100, 50)]).unwrap();
        assert!(!p.polyline_free(&bad));
    }

    #[test]
    fn display_reports_counts() {
        let (p, _) = plane_one_block();
        assert!(p.to_string().contains("1 obstacle"));
    }

    #[test]
    fn translate_obstacle_moves_every_query() {
        let (mut p, id) = plane_one_block();
        assert!(p.translate_obstacle(id, 10, -5));
        // The moved block now spans [40,80] × [25,65].
        assert!(p.point_free(Point::new(35, 50)));
        assert!(!p.point_free(Point::new(75, 50)));
        let hit = p.ray_hit(Point::new(0, 50), Dir::East);
        assert_eq!(hit.stop, 40);
        // The translated plane answers exactly like a fresh one.
        let mut fresh = Plane::new(p.bounds());
        fresh.add_obstacle(Rect::new(40, 25, 80, 65).unwrap());
        for y in [0, 25, 30, 50, 65, 100] {
            assert_eq!(
                p.ray_hit(Point::new(0, y), Dir::East),
                fresh.ray_hit(Point::new(0, y), Dir::East),
                "y={y}"
            );
            assert_eq!(
                corners(&p, Point::new(0, y), Dir::East, 100),
                corners(&fresh, Point::new(0, y), Dir::East, 100),
                "y={y}"
            );
        }
        assert!(!p.translate_obstacle(99, 1, 1));
    }

    #[test]
    fn translate_preserves_rect_slot_order() {
        // Two obstacles; moving the first must keep it in slot 0 so the
        // tie-breaks (lowest rect index wins) behave like a fresh plane
        // built from the mutated geometry.
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        let a = p.add_obstacle(Rect::new(10, 40, 20, 60).unwrap());
        p.add_obstacle(Rect::new(50, 40, 60, 60).unwrap());
        assert!(p.translate_obstacle(a, 40, 0)); // now coincident with b
        assert_eq!(p.rects()[0], (Rect::new(50, 40, 60, 60).unwrap(), a));
        assert_eq!(
            p.obstacle_at(Point::new(55, 50)),
            Some(a),
            "lowest slot wins"
        );
        assert_eq!(p.ray_hit(Point::new(0, 50), Dir::East).stop, 50);
    }
}
