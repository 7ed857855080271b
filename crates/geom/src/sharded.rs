//! [`ShardedPlane`]: a bucket-grid spatial index over the obstacle plane.
//!
//! The flat [`Plane`] answers every query by scanning (or
//! binary-searching) one global obstacle list. Once a routing session
//! hammers the plane from every net at once, the plane is the hot path —
//! so this implementation shards the surface into a uniform grid of
//! buckets, each holding the interval list of the obstacle rectangles
//! that touch it. A query then visits only the buckets its geometry
//! crosses:
//!
//! * [`PlaneIndex::ray_hit`] walks the bucket row/column under the ray and
//!   stops at the first bucket that yields a blocker (provably the global
//!   nearest, see `ray_scan_sharded`),
//! * [`PlaneIndex::segment_free`] / [`PlaneIndex::point_free`] test only
//!   the rectangles registered in the buckets the probe touches,
//! * [`PlaneIndex::corner_candidates`] and
//!   [`PlaneIndex::corner_stops_into`] are served by dedicated **corner
//!   tables** ([`CornerIndex`]): anchoring corners sit at any
//!   perpendicular distance from the ray line, so the uniform buckets
//!   have no locality to offer — instead the faces are grouped per
//!   distinct ray-axis coordinate with the perpendicular dimension
//!   pre-sorted, making the cost proportional to the distinct face
//!   coordinates in the slab (plus one binary search each) rather than
//!   to every obstacle sharing it, and the canonical output order falls
//!   out with no query-time sort.
//!
//! Nothing is memoized: every query reads the buckets and tables as they
//! stand, and every mutation updates them in place, so no answer can go
//! stale. (An earlier query memo cost more in hashing and locking than
//! the bucket walks it saved.) Flat/sharded equivalence is asserted by
//! `tests/plane_equivalence.rs` and the differential tests in
//! `crates/geom/tests/sharded.rs`.
//!
//! **Shard sizing heuristic:** the constructor aims at ~4 buckets per
//! obstacle rectangle (bucket edge ≈ √(area / 4·rects)), clamped so the
//! grid never exceeds ~1M buckets and never falls below edge length 1.
//! Few large cells → coarse buckets that degenerate gracefully toward the
//! flat scan; many small cells → fine buckets with O(1) rects each.

use std::fmt;

use crate::corners::CornerIndex;
use crate::plane::ray_entry;
use crate::{
    Axis, Coord, CornerCandidate, Dir, Interval, ObstacleId, Plane, PlaneIndex, Point, RayHit,
    Rect, RectilinearPolygon,
};

/// Hard ceiling on the bucket-grid size chosen by the sizing heuristic.
const MAX_BUCKETS: usize = 1 << 20;

/// A spatially sharded obstacle plane: drop-in [`PlaneIndex`] replacement
/// for the flat [`Plane`] with bucket-local queries and table-backed
/// corner enumeration.
///
/// ```
/// use gcr_geom::{Dir, Plane, PlaneIndex, Point, Rect, ShardedPlane};
/// # fn main() -> Result<(), gcr_geom::GeomError> {
/// let mut flat = Plane::new(Rect::new(0, 0, 100, 100)?);
/// flat.add_obstacle(Rect::new(30, 30, 70, 70)?);
/// let sharded = ShardedPlane::new(flat.clone());
///
/// // Bit-identical answers through the shared trait.
/// let p = Point::new(10, 50);
/// assert_eq!(sharded.ray_hit(p, Dir::East), flat.ray_hit(p, Dir::East));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct ShardedPlane {
    flat: Plane,
    shard: Coord,
    nx: usize,
    ny: usize,
    buckets: Vec<Vec<u32>>,
    /// Perpendicular-pruned corner tables (see [`CornerIndex`]); kept in
    /// lockstep with `flat` by every mutation.
    corners: CornerIndex,
}

impl ShardedPlane {
    /// Shards `plane` with the automatic sizing heuristic (see module
    /// docs).
    #[must_use]
    pub fn new(plane: Plane) -> ShardedPlane {
        let shard = auto_shard(&plane);
        ShardedPlane::with_shard_size(plane, shard)
    }

    /// Shards `plane` with an explicit bucket edge length (clamped to at
    /// least 1). Mostly useful for tests that want to force shard
    /// boundaries through specific coordinates.
    #[must_use]
    pub fn with_shard_size(plane: Plane, shard: Coord) -> ShardedPlane {
        // No sharded query reads the flat plane's topological index, so
        // it is neither built nor dropped here: a plane passed in indexed
        // stays indexed for `flat()` callers. Corner queries are served
        // by the dedicated corner tables (built once here, in bulk);
        // buckets serve the local queries (points, segments, rays).
        let corners = CornerIndex::build(plane.rects());
        let shard = shard.max(1);
        let b = plane.bounds();
        let nx = grid_cells(b.width(), shard);
        let ny = grid_cells(b.height(), shard);
        let mut sharded = ShardedPlane {
            flat: plane,
            shard,
            nx,
            ny,
            buckets: vec![Vec::new(); nx * ny],
            corners,
        };
        sharded.index_rects(0);
        sharded
    }

    /// An empty sharded plane with the given routing boundary.
    #[must_use]
    pub fn from_bounds(bounds: Rect) -> ShardedPlane {
        ShardedPlane::new(Plane::new(bounds))
    }

    /// The underlying flat plane (same rectangles, same bounds).
    #[must_use]
    pub fn flat(&self) -> &Plane {
        &self.flat
    }

    /// The bucket edge length.
    #[must_use]
    pub fn shard_size(&self) -> Coord {
        self.shard
    }

    /// The bucket-grid dimensions `(columns, rows)`.
    #[must_use]
    pub fn bucket_dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Adds a rectangular obstacle and returns its id (see
    /// [`Plane::add_obstacle`]). A built flat index is maintained
    /// incrementally by the insert (sorted-insert, not a rebuild), so
    /// mutation is O(log n) per face list plus the bucket and
    /// corner-table registration.
    pub fn add_obstacle(&mut self, rect: Rect) -> ObstacleId {
        let from = self.flat.rects().len();
        let id = self.flat.add_obstacle(rect);
        self.index_rects(from);
        self.index_corners(from);
        id
    }

    /// Adds a batch of rectangular obstacles in one step (see
    /// [`Plane::add_obstacles`]): a built flat index is rebuilt once by
    /// sort, the corner tables are rebuilt in bulk and buckets are
    /// appended — the bulk construction path for large generated
    /// instances and batched ECOs.
    pub fn add_obstacles(&mut self, rects: &[Rect]) -> std::ops::Range<ObstacleId> {
        let from = self.flat.rects().len();
        let ids = self.flat.add_obstacles(rects);
        self.index_rects(from);
        self.corners = CornerIndex::build(self.flat.rects());
        ids
    }

    /// Adds a rectilinear-polygon obstacle and returns its id (see
    /// [`Plane::add_polygon`]), maintained like
    /// [`ShardedPlane::add_obstacle`].
    pub fn add_polygon(&mut self, polygon: &RectilinearPolygon) -> ObstacleId {
        let from = self.flat.rects().len();
        let id = self.flat.add_polygon(polygon);
        self.index_rects(from);
        self.index_corners(from);
        id
    }

    /// Translates every rectangle of obstacle `id` by `(dx, dy)` (see
    /// [`Plane::translate_obstacle`]). Bucket maintenance is **targeted**:
    /// only the buckets the old and new rectangles touch are rewritten.
    pub fn translate_obstacle(&mut self, id: ObstacleId, dx: Coord, dy: Coord) -> bool {
        let moves: Vec<(u32, Rect)> = self
            .flat
            .rects()
            .iter()
            .enumerate()
            .filter(|(_, (_, i))| *i == id)
            .map(|(ri, (r, _))| (ri as u32, *r))
            .collect();
        if moves.is_empty() {
            return false;
        }
        for &(ri, old) in &moves {
            self.unregister_rect(ri, &old);
            self.corners.remove(&old, id);
        }
        let moved = self.flat.translate_obstacle(id, dx, dy);
        debug_assert!(moved, "flat plane holds the same ids");
        for &(ri, old) in &moves {
            let new = old.translate(dx, dy);
            self.register_rect(ri, &new);
            self.corners.insert(&new, id);
        }
        true
    }

    /// Removes obstacle `id` (see [`Plane::remove_obstacle`]). Removal
    /// compacts the flat rectangle list, shifting the indices every bucket
    /// refers to, so the bucket grid is rebuilt — removal is the rare
    /// structural mutation; the common ECO move is
    /// [`ShardedPlane::translate_obstacle`], which is targeted.
    pub fn remove_obstacle(&mut self, id: ObstacleId) -> bool {
        if !self.flat.remove_obstacle(id) {
            return false;
        }
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.index_rects(0);
        self.corners = CornerIndex::build(self.flat.rects());
        true
    }

    /// Registers the corner faces of rectangles `from..` in the corner
    /// tables (the incremental counterpart of the bulk
    /// [`CornerIndex::build`]).
    fn index_corners(&mut self, from: usize) {
        for k in from..self.flat.rects().len() {
            let (r, id) = self.flat.rects()[k];
            self.corners.insert(&r, id);
        }
    }

    /// Removes rectangle index `ri` from every bucket `rect` touches
    /// (each bucket list is sorted ascending, so the entry binary-searches
    /// out in O(log n) + one memmove).
    fn unregister_rect(&mut self, ri: u32, rect: &Rect) {
        let (cx0, cx1) = self.cell_range(Axis::X, rect.span(Axis::X));
        let (cy0, cy1) = self.cell_range(Axis::Y, rect.span(Axis::Y));
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                let bucket = &mut self.buckets[cy * self.nx + cx];
                if let Ok(at) = bucket.binary_search(&ri) {
                    bucket.remove(at);
                }
            }
        }
    }

    /// Registers rectangle index `ri` in every bucket `rect` touches,
    /// preserving each bucket's ascending order.
    fn register_rect(&mut self, ri: u32, rect: &Rect) {
        let (cx0, cx1) = self.cell_range(Axis::X, rect.span(Axis::X));
        let (cy0, cy1) = self.cell_range(Axis::Y, rect.span(Axis::Y));
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                let bucket = &mut self.buckets[cy * self.nx + cx];
                if let Err(at) = bucket.binary_search(&ri) {
                    bucket.insert(at, ri);
                }
            }
        }
    }

    /// Registers rectangles `from..` in every bucket they touch. Indices
    /// are appended in ascending rectangle order, so each bucket's list
    /// stays sorted — queries that scan a bucket see rects in insertion
    /// order, exactly like the flat plane's global scan.
    fn index_rects(&mut self, from: usize) {
        let rects: Vec<(usize, Rect)> = self.flat.rects()[from..]
            .iter()
            .enumerate()
            .map(|(k, (r, _))| (from + k, *r))
            .collect();
        for (i, r) in rects {
            let (cx0, cx1) = self.cell_range(Axis::X, r.span(Axis::X));
            let (cy0, cy1) = self.cell_range(Axis::Y, r.span(Axis::Y));
            for cy in cy0..=cy1 {
                for cx in cx0..=cx1 {
                    self.buckets[cy * self.nx + cx].push(i as u32);
                }
            }
        }
    }

    /// The bucket cell containing coordinate `v` on `axis` (clamped to
    /// the grid). The mapping is monotonic, so any containment relation
    /// between a point and a rectangle is preserved by cell indices.
    fn cell_of(&self, axis: Axis, v: Coord) -> usize {
        let span = self.flat.bounds().span(axis);
        let n = match axis {
            Axis::X => self.nx,
            Axis::Y => self.ny,
        };
        let i = (v - span.lo()).div_euclid(self.shard);
        i.clamp(0, n as Coord - 1) as usize
    }

    /// The inclusive bucket range covering an interval on `axis`.
    fn cell_range(&self, axis: Axis, iv: Interval) -> (usize, usize) {
        (self.cell_of(axis, iv.lo()), self.cell_of(axis, iv.hi()))
    }

    fn bucket(&self, cx: usize, cy: usize) -> &[u32] {
        &self.buckets[cy * self.nx + cx]
    }

    /// The sharded ray scan. Walk the bucket row (or column) under the
    /// ray in travel order; within each bucket take the nearest entry
    /// face (ties to the lowest rectangle index, matching the flat scan).
    /// The first bucket that yields a blocker holds the global nearest:
    /// any rectangle not yet visited starts strictly beyond the current
    /// bucket's far edge, while every candidate found inside it stops at
    /// or before that edge.
    fn ray_scan_sharded(&self, origin: Point, dir: Dir) -> RayHit {
        let axis = dir.axis();
        let perp = axis.perpendicular();
        let u0 = origin.coord(axis);
        let w = origin.coord(perp);
        let positive = dir.sign() > 0;
        let bound = if positive {
            self.flat.bounds().span(axis).hi()
        } else {
            self.flat.bounds().span(axis).lo()
        };
        let rects = self.flat.rects();
        let row = self.cell_of(perp, w);
        let mut c = self.cell_of(axis, u0);
        let cend = self.cell_of(axis, bound);
        let (mut stop, mut blocker) = (bound, None);
        loop {
            let cell = match axis {
                Axis::X => self.bucket(c, row),
                Axis::Y => self.bucket(row, c),
            };
            let mut best: Option<(Coord, u32)> = None;
            for &ri in cell {
                let (r, _) = &rects[ri as usize];
                let Some(entry) = ray_entry(r, axis, perp, positive, u0, w, bound) else {
                    continue;
                };
                let better = match best {
                    None => true,
                    Some((be, bi)) => {
                        if positive {
                            entry < be || (entry == be && ri < bi)
                        } else {
                            entry > be || (entry == be && ri < bi)
                        }
                    }
                };
                if better {
                    best = Some((entry, ri));
                }
            }
            if let Some((entry, ri)) = best {
                stop = entry;
                blocker = Some(rects[ri as usize].1);
                break;
            }
            if c == cend {
                break;
            }
            if positive {
                c += 1;
            } else {
                c -= 1;
            }
        }
        let distance = if positive { stop - u0 } else { u0 - stop };
        debug_assert!(distance >= 0, "ray travelled backwards");
        RayHit {
            stop,
            blocker,
            distance,
        }
    }

    /// Collects the deduplicated, ascending rectangle indices registered
    /// in the bucket slab `[cx0..=cx1] × [cy0..=cy1]`.
    fn slab_rects(&self, cx0: usize, cx1: usize, cy0: usize, cy1: usize) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                out.extend_from_slice(self.bucket(cx, cy));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn segment_blocked(&self, a: Point, b: Point) -> bool {
        let axis = if a.y == b.y { Axis::X } else { Axis::Y };
        let perp = axis.perpendicular();
        let w = a.coord(perp);
        let span = Interval::spanning(a.coord(axis), b.coord(axis))
            .expect("coordinates validated by in_bounds");
        let (c0, c1) = self.cell_range(axis, span);
        let row = self.cell_of(perp, w);
        let (cx0, cx1, cy0, cy1) = match axis {
            Axis::X => (c0, c1, row, row),
            Axis::Y => (row, row, c0, c1),
        };
        let rects = self.flat.rects();
        self.slab_rects(cx0, cx1, cy0, cy1).into_iter().any(|ri| {
            let (r, _) = &rects[ri as usize];
            !r.is_degenerate() && r.span(perp).contains_open(w) && r.span(axis).overlaps_open(&span)
        })
    }
}

fn grid_cells(extent: Coord, shard: Coord) -> usize {
    ((extent.max(0) / shard) + 1) as usize
}

/// Integer square root (floor) for the sizing heuristic.
fn isqrt(v: i128) -> i128 {
    if v <= 0 {
        return 0;
    }
    let mut x = v;
    let mut y = (x + 1) / 2;
    while y < x {
        x = y;
        y = (x + v / x) / 2;
    }
    x
}

/// The automatic shard edge: ~4 buckets per obstacle rectangle, capped at
/// [`MAX_BUCKETS`] total and floored at edge length 1.
fn auto_shard(plane: &Plane) -> Coord {
    let b = plane.bounds();
    let (w, h) = (b.width().max(1), b.height().max(1));
    let n = plane.rects().len().max(1) as i128;
    let area = i128::from(w) * i128::from(h);
    let mut shard = isqrt(area / (4 * n)).max(1) as Coord;
    while grid_cells(w, shard) * grid_cells(h, shard) > MAX_BUCKETS {
        shard *= 2;
    }
    shard
}

impl PlaneIndex for ShardedPlane {
    fn bounds(&self) -> Rect {
        self.flat.bounds()
    }

    fn rects(&self) -> &[(Rect, ObstacleId)] {
        self.flat.rects()
    }

    fn obstacle_count(&self) -> usize {
        self.flat.obstacle_count()
    }

    fn point_free(&self, p: Point) -> bool {
        if !self.in_bounds(p) {
            return false;
        }
        let (cx, cy) = (self.cell_of(Axis::X, p.x), self.cell_of(Axis::Y, p.y));
        let rects = self.flat.rects();
        !self
            .bucket(cx, cy)
            .iter()
            .any(|&ri| rects[ri as usize].0.contains_open(p))
    }

    fn segment_free(&self, a: Point, b: Point) -> bool {
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
        !self.segment_blocked(a, b)
    }

    fn ray_hit(&self, origin: Point, dir: Dir) -> RayHit {
        debug_assert!(self.point_free(origin), "ray origin must be free: {origin}");
        self.ray_scan_sharded(origin, dir)
    }

    fn corner_candidates(&self, origin: Point, dir: Dir, stop: Coord) -> Vec<CornerCandidate> {
        let mut out = Vec::new();
        self.corner_candidates_into(origin, dir, stop, &mut out);
        out
    }

    fn corner_candidates_into(
        &self,
        origin: Point,
        dir: Dir,
        stop: Coord,
        out: &mut Vec<CornerCandidate>,
    ) {
        // The uniform buckets have no locality to offer here (anchoring
        // corners sit at any perpendicular distance from the ray line),
        // so corner queries go to the dedicated tables: cost proportional
        // to the distinct face coordinates in the slab, with the
        // perpendicular side resolved by binary search and the canonical
        // output order emitted directly — no sort, no dedup, no
        // allocation.
        self.corners.candidates_into(origin, dir, stop, out);
    }

    fn corner_stops_into(&self, origin: Point, dir: Dir, stop: Coord, out: &mut Vec<Coord>) {
        self.corners.stops_into(origin, dir, stop, out);
    }

    fn corner_coords(&self, axis: Axis) -> Vec<Coord> {
        self.flat.corner_coords(axis)
    }

    fn obstacle_at(&self, p: Point) -> Option<ObstacleId> {
        if !self.in_bounds(p) {
            // Rectangles outside the routing boundary are clamped into
            // edge buckets; fall back to the flat scan for the (rare)
            // out-of-bounds probe so the answers stay identical.
            return self.flat.obstacle_at(p);
        }
        let (cx, cy) = (self.cell_of(Axis::X, p.x), self.cell_of(Axis::Y, p.y));
        let rects = self.flat.rects();
        self.bucket(cx, cy)
            .iter()
            .find(|&&ri| rects[ri as usize].0.contains(p))
            .map(|&ri| rects[ri as usize].1)
    }
}

impl fmt::Debug for ShardedPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedPlane")
            .field("bounds", &self.flat.bounds())
            .field("rects", &self.flat.rects().len())
            .field("shard", &self.shard)
            .field("grid", &(self.nx, self.ny))
            .finish_non_exhaustive()
    }
}

impl fmt::Display for ShardedPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sharded {} ({}x{} buckets of {})",
            self.flat, self.nx, self.ny, self.shard
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_block() -> (Plane, ObstacleId) {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        let id = p.add_obstacle(Rect::new(30, 30, 70, 70).unwrap());
        (p, id)
    }

    #[test]
    fn matches_flat_on_the_basics() {
        let (flat, id) = one_block();
        for shard in [1, 4, 7, 33, 100, 1000] {
            let s = ShardedPlane::with_shard_size(flat.clone(), shard);
            assert!(s.point_free(Point::new(30, 50)), "shard {shard}");
            assert!(!s.point_free(Point::new(50, 50)), "shard {shard}");
            assert_eq!(
                s.ray_hit(Point::new(0, 50), Dir::East),
                flat.ray_hit(Point::new(0, 50), Dir::East),
                "shard {shard}"
            );
            assert!(
                s.segment_free(Point::new(0, 30), Point::new(100, 30)),
                "shard {shard}"
            );
            assert!(!s.segment_free(Point::new(0, 50), Point::new(100, 50)));
            assert_eq!(s.obstacle_at(Point::new(30, 30)), Some(id));
            assert_eq!(
                s.corner_candidates(Point::new(0, 10), Dir::East, 100),
                flat.corner_candidates(Point::new(0, 10), Dir::East, 100),
                "shard {shard}"
            );
        }
    }

    #[test]
    fn corner_candidates_track_clipping_and_mutation() {
        let (flat, _) = one_block();
        let s = ShardedPlane::new(flat.clone());
        let (p, stop) = (Point::new(0, 10), 100);
        let full = s.corner_candidates(p, Dir::East, stop);
        assert_eq!(full, flat.corner_candidates(p, Dir::East, stop));
        // A clipped stop changes the answer.
        let clipped = s.corner_candidates(p, Dir::East, 50);
        assert_eq!(clipped, flat.corner_candidates(p, Dir::East, 50));
        // Mutation updates the tables: the new obstacle must appear.
        let mut s = s;
        s.add_obstacle(Rect::new(80, 20, 90, 40).unwrap());
        let fresh = s.corner_candidates(p, Dir::East, stop);
        assert!(fresh.iter().any(|c| c.at == 80));
        assert_eq!(fresh, s.flat().corner_candidates(p, Dir::East, stop));
    }

    #[test]
    fn corner_stops_append_in_travel_order() {
        let (flat, _) = one_block();
        let s = ShardedPlane::new(flat.clone());
        for (p, dir, stop, want) in [
            (Point::new(0, 10), Dir::East, 100, vec![30, 70]),
            (Point::new(100, 10), Dir::West, 0, vec![70, 30]),
            (Point::new(10, 100), Dir::South, 0, vec![70, 30]),
            (Point::new(0, 10), Dir::East, 50, vec![30]),
            (Point::new(0, 50), Dir::East, 30, vec![]),
        ] {
            for plane in [&s as &dyn PlaneIndex, &flat] {
                // Appends after whatever the buffer already holds.
                let mut out = vec![-1];
                plane.corner_stops_into(p, dir, stop, &mut out);
                assert_eq!(out[0], -1, "{plane:?} {p} {dir:?}");
                assert_eq!(out[1..], want, "{plane:?} {p} {dir:?} @{stop}");
            }
        }
    }

    #[test]
    fn corner_candidates_into_reuses_the_buffer() {
        let (flat, _) = one_block();
        let s = ShardedPlane::new(flat);
        let mut buf = vec![CornerCandidate {
            at: -1,
            obstacle: 9,
            side: crate::TurnSide::Positive,
        }];
        s.corner_candidates_into(Point::new(0, 10), Dir::East, 100, &mut buf);
        assert_eq!(buf, s.corner_candidates(Point::new(0, 10), Dir::East, 100));
        assert!(buf.iter().all(|c| c.at >= 0), "stale contents cleared");
    }

    #[test]
    fn segment_free_is_direction_independent() {
        let (flat, _) = one_block();
        let s = ShardedPlane::new(flat);
        assert!(s.segment_free(Point::new(0, 10), Point::new(100, 10)));
        assert!(s.segment_free(Point::new(100, 10), Point::new(0, 10)));
        assert!(!s.segment_free(Point::new(100, 50), Point::new(0, 50)));
    }

    #[test]
    fn insert_changes_later_answers() {
        let mut s = ShardedPlane::from_bounds(Rect::new(0, 0, 100, 100).unwrap());
        let p = Point::new(0, 50);
        let open = s.ray_hit(p, Dir::East);
        assert_eq!(open.stop, 100);
        s.add_obstacle(Rect::new(40, 40, 60, 60).unwrap());
        let blocked = s.ray_hit(p, Dir::East);
        assert_eq!(blocked.stop, 40);
        assert!(blocked.blocker.is_some());
    }

    #[test]
    fn polygon_obstacles_register_in_buckets() {
        let mut s =
            ShardedPlane::with_shard_size(Plane::new(Rect::new(0, 0, 100, 100).unwrap()), 8);
        let l = RectilinearPolygon::new(vec![
            Point::new(20, 20),
            Point::new(60, 20),
            Point::new(60, 40),
            Point::new(40, 40),
            Point::new(40, 60),
            Point::new(20, 60),
        ])
        .unwrap();
        let id = s.add_polygon(&l);
        assert_eq!(s.obstacle_count(), 1);
        assert!(!s.point_free(Point::new(30, 30)));
        assert!(s.point_free(Point::new(50, 50)));
        assert_eq!(s.obstacle_at(Point::new(30, 30)), Some(id));
    }

    #[test]
    fn clone_answers_identically() {
        let (flat, _) = one_block();
        let s = ShardedPlane::new(flat);
        let c = s.clone();
        assert_eq!(
            c.ray_hit(Point::new(0, 50), Dir::East),
            s.ray_hit(Point::new(0, 50), Dir::East)
        );
    }

    #[test]
    fn display_and_debug_summarize() {
        let (flat, _) = one_block();
        let s = ShardedPlane::new(flat);
        assert!(s.to_string().contains("buckets"));
        assert!(format!("{s:?}").contains("ShardedPlane"));
    }

    #[test]
    fn translate_obstacle_matches_flat() {
        let (mut flat, id) = one_block();
        flat.build_index();
        for shard in [1, 7, 33, 1000] {
            let mut s = ShardedPlane::with_shard_size(flat.clone(), shard);
            let p = Point::new(0, 50);
            assert_eq!(s.ray_hit(p, Dir::East).stop, 30, "shard {shard}");
            assert!(s.translate_obstacle(id, 15, 10));
            let mut moved = flat.clone();
            assert!(moved.translate_obstacle(id, 15, 10));
            assert_eq!(s.ray_hit(p, Dir::East), moved.ray_hit(p, Dir::East));
            for (probe, dir) in [
                (Point::new(0, 45), Dir::East),
                (Point::new(100, 45), Dir::West),
                (Point::new(50, 0), Dir::North),
                (Point::new(60, 100), Dir::South),
            ] {
                assert_eq!(
                    s.ray_hit(probe, dir),
                    moved.ray_hit(probe, dir),
                    "shard {shard} probe {probe}"
                );
                assert_eq!(
                    s.corner_candidates(probe, dir, s.ray_hit(probe, dir).stop),
                    moved.corner_candidates(probe, dir, moved.ray_hit(probe, dir).stop),
                    "shard {shard} probe {probe}"
                );
            }
            assert!(!s.point_free(Point::new(50, 75)));
            assert!(s.point_free(Point::new(35, 35)));
            assert!(!s.translate_obstacle(99, 1, 1), "unknown id");
        }
    }

    #[test]
    fn remove_obstacle_matches_flat() {
        let mut flat = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        let a = flat.add_obstacle(Rect::new(10, 40, 20, 60).unwrap());
        let b = flat.add_obstacle(Rect::new(50, 40, 60, 60).unwrap());
        flat.build_index();
        let mut s = ShardedPlane::with_shard_size(flat.clone(), 8);
        assert!(s.remove_obstacle(a));
        assert!(!s.remove_obstacle(a));
        let mut removed = flat;
        removed.remove_obstacle(a);
        let hit = s.ray_hit(Point::new(0, 50), Dir::East);
        assert_eq!(hit, removed.ray_hit(Point::new(0, 50), Dir::East));
        assert_eq!(hit.blocker, Some(b));
        assert_eq!(s.obstacle_count(), 1);
        assert!(s.point_free(Point::new(15, 50)));
    }

    /// Deterministic LCG so the differential sweep needs no external RNG.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 16
    }

    fn seeded_rects(seed: u64, n: usize, extent: Coord) -> Vec<Rect> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let x = (lcg(&mut state) % (extent as u64 - 8)) as Coord;
            let y = (lcg(&mut state) % (extent as u64 - 8)) as Coord;
            let w = (lcg(&mut state) % 8) as Coord; // degenerate widths included
            let h = (lcg(&mut state) % 8) as Coord;
            out.push(Rect::new(x, y, x + w, y + h).unwrap());
        }
        out
    }

    /// Every corner query has two implementations that must agree bit for
    /// bit: the flat plane's slab scan and the sharded plane's dedicated
    /// corner tables, for both the full candidates and the coordinate-only
    /// stops (the distinct `at`s of the flat candidates, in travel order).
    /// Sweep both across bulk construction and every mutation kind, for
    /// full and clipped stops.
    #[test]
    fn bucketed_corners_match_flat_across_mutations() {
        let extent: Coord = 200;
        let bounds = Rect::new(0, 0, extent, extent).unwrap();
        for seed in 0..6u64 {
            let rects = seeded_rects(seed, 40, extent);
            let flat = Plane::with_obstacles(bounds, &rects);
            let mut bucketed = ShardedPlane::from_bounds(bounds);
            bucketed.add_obstacles(&rects);

            let check = |flat: &Plane, bucketed: &ShardedPlane| {
                let mut probes = vec![0, extent / 2, extent];
                for &(r, _) in flat.rects().iter().take(12) {
                    probes.push(r.span(Axis::X).lo());
                    probes.push(r.span(Axis::Y).hi());
                }
                probes.sort_unstable();
                probes.dedup();
                let mut stops = Vec::new();
                for &u in &probes {
                    for &v in &probes {
                        let origin = Point::new(u, v);
                        if !flat.point_free(origin) {
                            continue;
                        }
                        for dir in [Dir::East, Dir::West, Dir::North, Dir::South] {
                            let hit = flat.ray_hit(origin, dir).stop;
                            let mid = (origin.coord(dir.axis()) + hit) / 2;
                            for stop in [hit, mid] {
                                let want = flat.corner_candidates(origin, dir, stop);
                                assert_eq!(
                                    bucketed.corner_candidates(origin, dir, stop),
                                    want,
                                    "bucketed seed {seed} origin {origin} dir {dir:?} @{stop}"
                                );
                                let mut want_stops: Vec<Coord> =
                                    want.iter().map(|c| c.at).collect();
                                want_stops.dedup();
                                for plane in [bucketed as &dyn PlaneIndex, flat] {
                                    stops.clear();
                                    plane.corner_stops_into(origin, dir, stop, &mut stops);
                                    assert_eq!(
                                        stops, want_stops,
                                        "{plane:?} seed {seed} origin {origin} dir {dir:?} @{stop}"
                                    );
                                }
                            }
                        }
                    }
                }
            };
            check(&flat, &bucketed);

            // Mutations: translate one obstacle, remove another, insert one.
            let mut flat = flat;
            let victim = flat.rects()[(seed as usize * 7) % flat.rects().len()].1;
            assert!(bucketed.translate_obstacle(victim, 3, -2));
            assert!(flat.translate_obstacle(victim, 3, -2));
            check(&flat, &bucketed);

            let gone = flat.rects()[(seed as usize * 3) % flat.rects().len()].1;
            assert!(bucketed.remove_obstacle(gone));
            assert!(flat.remove_obstacle(gone));
            check(&flat, &bucketed);

            let extra = Rect::new(11, 13, 23, 29).unwrap();
            bucketed.add_obstacle(extra);
            flat.add_obstacle(extra);
            check(&flat, &bucketed);
        }
    }

    #[test]
    fn bulk_add_obstacles_matches_incremental_on_sharded() {
        let bounds = Rect::new(0, 0, 200, 200).unwrap();
        let rects = seeded_rects(9, 30, 200);
        let mut bulk = ShardedPlane::from_bounds(bounds);
        let ids = bulk.add_obstacles(&rects);
        assert_eq!(ids.len(), rects.len());
        let mut incremental = ShardedPlane::from_bounds(bounds);
        for &r in &rects {
            incremental.add_obstacle(r);
        }
        assert_eq!(bulk.obstacle_count(), incremental.obstacle_count());
        for &(u, v, dir) in &[
            (0, 50, Dir::East),
            (200, 137, Dir::West),
            (41, 0, Dir::North),
            (99, 200, Dir::South),
        ] {
            let origin = Point::new(u, v);
            assert_eq!(bulk.ray_hit(origin, dir), incremental.ray_hit(origin, dir));
            let stop = bulk.ray_hit(origin, dir).stop;
            assert_eq!(
                bulk.corner_candidates(origin, dir, stop),
                incremental.corner_candidates(origin, dir, stop)
            );
        }
    }

    #[test]
    fn auto_shard_is_sane() {
        let (flat, _) = one_block();
        let s = ShardedPlane::new(flat);
        assert!(s.shard_size() >= 1);
        let (nx, ny) = s.bucket_dims();
        assert!(nx * ny <= MAX_BUCKETS);
    }
}
