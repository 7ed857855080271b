//! [`PlaneIndex`]: one query contract for every obstacle-plane
//! implementation.
//!
//! Every router in the workspace asks the routing surface the same small
//! set of geometric connection queries — ray casts, corner enumeration,
//! wire-legality checks. This trait pins those queries down so the flat
//! ray-traced [`Plane`] and the bucket-gridded
//! [`ShardedPlane`](crate::ShardedPlane) are interchangeable behind one
//! reference: engines take `&dyn PlaneIndex` and cannot observe which
//! implementation answered.
//!
//! The contract is **semantic equality**: every implementation must
//! return *bit-identical* answers for identical queries — the ray's stop
//! coordinate and distance, and the corner coordinates in their order.
//! Ray and corner queries answer coordinates only, never which obstacle
//! stopped or anchored them: the successor generator reads nothing else.
//! That is what lets `tests/plane_equivalence.rs` assert that routing
//! over a sharded plane produces byte-identical routes to routing over
//! the flat one, serially and in parallel.
//!
//! The two implementations are free to answer *differently inside*: the
//! flat plane scans the obstacles overlapping a query's slab, the
//! sharded plane walks buckets for local queries and binary-searches its
//! perpendicular-pruned corner tables (`corners.rs`) for corner
//! enumeration — the equality contract (not a shared code path) is what
//! keeps them interchangeable, and the differential sweeps are what
//! enforce it. Neither memoizes: every answer is computed from the
//! geometry as it stands, so a mutation is visible to the next query.

use std::fmt;

use crate::{Axis, Coord, Dir, ObstacleId, Plane, Point, Polyline, RayHit, Rect};

/// The query interface of an obstacle plane.
///
/// Implementations must be [`Sync`] (a routing session shares one plane
/// across worker threads) and **deterministic**: identical queries return
/// identical answers, across runs and across threads, regardless of any
/// internal caching or index layout. Wires may run *on* obstacle
/// boundaries; only the open interior of an obstacle blocks.
pub trait PlaneIndex: fmt::Debug + Sync {
    /// The routing boundary.
    fn bounds(&self) -> Rect;

    /// All obstacle rectangles with their owning obstacle ids, in
    /// insertion order (polygonal obstacles contribute several rectangles
    /// sharing one id).
    fn rects(&self) -> &[(Rect, ObstacleId)];

    /// Number of obstacles (polygons count once).
    fn obstacle_count(&self) -> usize;

    /// Returns `true` if `p` is a legal wire position: inside the
    /// boundary and not strictly inside any obstacle.
    fn point_free(&self, p: Point) -> bool;

    /// Returns `true` if the axis-aligned segment from `a` to `b` is a
    /// legal wire: fully in bounds and intersecting no obstacle interior.
    fn segment_free(&self, a: Point, b: Point) -> bool;

    /// Casts a ray from `origin` in direction `dir` and reports where
    /// travel must stop: at the entry face of the first blocking obstacle
    /// or at the plane boundary. The origin must be a legal wire
    /// position.
    fn ray_hit(&self, origin: Point, dir: Dir) -> RayHit;

    /// Clears `out` and fills it with the obstacle-corner coordinates
    /// along a ray from `origin` in `dir`, up to and including `stop`
    /// (normally the [`RayHit::stop`] of the same ray): each coordinate in
    /// the ray's range at which a rectangle lying wholly on one side of
    /// the ray line has a face, once, in travel order (nearest to the
    /// origin first).
    ///
    /// This is the "hug cells as they are encountered" query: the search
    /// calls it once per ray it casts, into a reused buffer.
    fn corner_candidates_into(&self, origin: Point, dir: Dir, stop: Coord, out: &mut Vec<Coord>);

    /// The sorted, deduplicated coordinates of all obstacle edges on
    /// `axis`, including the plane boundary.
    fn corner_coords(&self, axis: Axis) -> Vec<Coord>;

    /// The first obstacle (lowest rectangle index) whose closed rectangle
    /// contains `p`, if any — boundary contact counts.
    fn obstacle_at(&self, p: Point) -> Option<ObstacleId>;

    /// Returns `true` if `p` is inside the routing boundary (closed).
    fn in_bounds(&self, p: Point) -> bool {
        self.bounds().contains(p)
    }

    /// Returns `true` if an entire polyline is a legal wire.
    fn polyline_free(&self, polyline: &Polyline) -> bool {
        let pts = polyline.points();
        if pts.len() == 1 {
            return self.point_free(pts[0]);
        }
        pts.windows(2).all(|w| self.segment_free(w[0], w[1]))
    }
}

impl PlaneIndex for Plane {
    fn bounds(&self) -> Rect {
        Plane::bounds(self)
    }

    fn rects(&self) -> &[(Rect, ObstacleId)] {
        Plane::rects(self)
    }

    fn obstacle_count(&self) -> usize {
        Plane::obstacle_count(self)
    }

    fn point_free(&self, p: Point) -> bool {
        Plane::point_free(self, p)
    }

    fn segment_free(&self, a: Point, b: Point) -> bool {
        Plane::segment_free(self, a, b)
    }

    fn ray_hit(&self, origin: Point, dir: Dir) -> RayHit {
        Plane::ray_hit(self, origin, dir)
    }

    fn corner_candidates_into(&self, origin: Point, dir: Dir, stop: Coord, out: &mut Vec<Coord>) {
        Plane::corner_candidates_into(self, origin, dir, stop, out);
    }

    fn corner_coords(&self, axis: Axis) -> Vec<Coord> {
        Plane::corner_coords(self, axis)
    }

    fn obstacle_at(&self, p: Point) -> Option<ObstacleId> {
        Plane::obstacle_at(self, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> Plane {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        p.add_obstacle(Rect::new(30, 30, 70, 70).unwrap());
        p
    }

    #[test]
    fn flat_plane_answers_through_the_trait() {
        let p = plane();
        let ix: &dyn PlaneIndex = &p;
        assert_eq!(ix.bounds(), Plane::bounds(&p));
        assert_eq!(ix.obstacle_count(), 1);
        assert!(ix.point_free(Point::new(0, 0)));
        assert!(!ix.point_free(Point::new(50, 50)));
        assert!(!ix.segment_free(Point::new(0, 50), Point::new(100, 50)));
        let hit = ix.ray_hit(Point::new(0, 50), Dir::East);
        assert_eq!((hit.stop, hit.distance), (30, 30));
        let mut corners = vec![-1];
        ix.corner_candidates_into(Point::new(0, 10), Dir::East, 100, &mut corners);
        assert_eq!(corners, [30, 70]);
        assert_eq!(ix.corner_coords(Axis::X), vec![0, 30, 70, 100]);
        assert_eq!(ix.obstacle_at(Point::new(30, 30)), Some(0));
        assert!(ix.in_bounds(Point::new(100, 100)));
    }

    #[test]
    fn default_polyline_free_matches_inherent() {
        let p = plane();
        let ix: &dyn PlaneIndex = &p;
        let ok = Polyline::new(vec![
            Point::new(0, 0),
            Point::new(0, 30),
            Point::new(100, 30),
        ])
        .unwrap();
        let bad = Polyline::new(vec![Point::new(0, 50), Point::new(100, 50)]).unwrap();
        assert_eq!(ix.polyline_free(&ok), p.polyline_free(&ok));
        assert_eq!(ix.polyline_free(&bad), p.polyline_free(&bad));
        assert!(ix.polyline_free(&Polyline::single(Point::new(1, 1))));
    }
}
