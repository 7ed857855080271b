//! [`ShardedPlane`]: the production spatial index over the obstacle
//! plane, and the one every routing session uses by default.
//!
//! The flat [`Plane`] is the reference: it answers every query by
//! scanning its whole obstacle list. Once a routing session hammers the
//! plane from every net at once, the plane is the hot path — so this
//! implementation shards the surface into a uniform grid of buckets,
//! each holding the interval list of the obstacle rectangles that touch
//! it. A query then visits only the buckets its geometry crosses:
//!
//! * [`PlaneIndex::ray_hit`] walks the bucket row/column under the ray and
//!   stops at the first bucket that yields a blocker (provably the global
//!   nearest, see `ray_scan_sharded`),
//! * [`PlaneIndex::segment_free`] / [`PlaneIndex::point_free`] test only
//!   the rectangles registered in the buckets the probe touches,
//! * [`PlaneIndex::corner_candidates_into`] is served by dedicated
//!   **corner tables** ([`CornerIndex`]): anchoring corners sit at any
//!   perpendicular distance from the ray line, so the uniform buckets
//!   have no locality to offer — instead the faces are grouped per
//!   distinct ray-axis coordinate with each column's perpendicular reach
//!   precomputed, making the cost proportional to the distinct face
//!   coordinates in the slab rather than to every obstacle sharing it,
//!   and the travel order falls out with no query-time sort.
//!
//! Nothing is memoized: every query reads the buckets and tables as they
//! stand, and the two mutations a session makes ([`ShardedPlane::add_obstacle`]
//! and [`ShardedPlane::translate_obstacle`]) update them in place, so no
//! answer can go stale. (An earlier query memo cost more in hashing and
//! locking than the bucket walks it saved.) Equivalence with the
//! reference is asserted by `tests/plane_equivalence.rs` and the
//! differential tests in `crates/geom/tests/sharded.rs`.
//!
//! **Shard sizing heuristic:** the constructor aims at ~4 buckets per
//! obstacle rectangle (bucket edge ≈ √(area / 4·rects)), clamped so the
//! grid never exceeds ~1M buckets and never falls below edge length 1.
//! Few large cells → coarse buckets that degenerate gracefully toward the
//! flat scan; many small cells → fine buckets with O(1) rects each.

use std::fmt;

use crate::corners::CornerIndex;
use crate::plane::ray_entry;
use crate::{Axis, Coord, Dir, Interval, ObstacleId, Plane, PlaneIndex, Point, RayHit, Rect};

/// Hard ceiling on the bucket-grid size chosen by the sizing heuristic.
const MAX_BUCKETS: usize = 1 << 20;

/// A spatially sharded obstacle plane: the production [`PlaneIndex`],
/// answering exactly as the reference [`Plane`] it wraps, with
/// bucket-local queries and table-backed corner enumeration.
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
        // Buckets serve the local queries (points, segments, rays) and
        // the corner tables, built once here in bulk, the corner
        // queries.
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
        for ri in 0..sharded.flat.rects().len() {
            let rect = sharded.flat.rects()[ri].0;
            sharded.register_rect(ri as u32, &rect);
        }
        sharded
    }

    /// Adds a rectangular obstacle and returns its id (see
    /// [`Plane::add_obstacle`]): an append to the flat list plus the
    /// bucket and corner-table registration.
    pub fn add_obstacle(&mut self, rect: Rect) -> ObstacleId {
        let id = self.flat.add_obstacle(rect);
        let ri = self.flat.rects().len() - 1;
        self.register_rect(ri as u32, &rect);
        self.corners.insert(&rect);
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
            self.corners.remove(&old);
        }
        let moved = self.flat.translate_obstacle(id, dx, dy);
        debug_assert!(moved, "flat plane holds the same ids");
        for &(ri, old) in &moves {
            let new = old.translate(dx, dy);
            self.register_rect(ri, &new);
            self.corners.insert(&new);
        }
        true
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
    /// preserving each bucket's ascending order: queries that scan a
    /// bucket see rects in insertion order, exactly like the flat plane's
    /// global scan.
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
    /// face. The first bucket that yields a blocker holds the global
    /// nearest: any rectangle not yet visited starts strictly beyond the
    /// current bucket's far edge, while every candidate found inside it
    /// stops at or before that edge.
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
        let mut stop = bound;
        loop {
            let cell = match axis {
                Axis::X => self.bucket(c, row),
                Axis::Y => self.bucket(row, c),
            };
            let entries = cell.iter().filter_map(|&ri| {
                ray_entry(&rects[ri as usize].0, axis, perp, positive, u0, w, bound)
            });
            let nearest = if positive {
                entries.min()
            } else {
                entries.max()
            };
            if let Some(entry) = nearest {
                stop = entry;
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
        RayHit { stop, distance }
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

    fn corner_candidates_into(&self, origin: Point, dir: Dir, stop: Coord, out: &mut Vec<Coord>) {
        // The uniform buckets have no locality to offer here (anchoring
        // corners sit at any perpendicular distance from the ray line),
        // so corner queries go to the dedicated tables: cost proportional
        // to the distinct face coordinates in the slab, emitted in travel
        // order with no sort, no dedup and no allocation.
        self.corners.candidates_into(origin, dir, stop, out);
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

    /// The corner query into a buffer that holds stale contents.
    fn corners(plane: &dyn PlaneIndex, p: Point, dir: Dir, stop: Coord) -> Vec<Coord> {
        let mut out = vec![Coord::MIN];
        plane.corner_candidates_into(p, dir, stop, &mut out);
        out
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
                corners(&s, Point::new(0, 10), Dir::East, 100),
                corners(&flat, Point::new(0, 10), Dir::East, 100),
                "shard {shard}"
            );
        }
    }

    #[test]
    fn corner_candidates_track_clipping_and_mutation() {
        let (mut flat, _) = one_block();
        let s = ShardedPlane::new(flat.clone());
        let (p, stop) = (Point::new(0, 10), 100);
        let full = corners(&s, p, Dir::East, stop);
        assert_eq!(full, [30, 70]);
        assert_eq!(full, corners(&flat, p, Dir::East, stop));
        // A clipped stop changes the answer.
        let clipped = corners(&s, p, Dir::East, 50);
        assert_eq!(clipped, [30]);
        assert_eq!(clipped, corners(&flat, p, Dir::East, 50));
        // Mutation updates the tables: the new obstacle must appear.
        let mut s = s;
        let added = Rect::new(80, 20, 90, 40).unwrap();
        s.add_obstacle(added);
        flat.add_obstacle(added);
        let fresh = corners(&s, p, Dir::East, stop);
        assert_eq!(fresh, [30, 70, 80, 90]);
        assert_eq!(fresh, corners(&flat, p, Dir::East, stop));
    }

    #[test]
    fn corner_candidates_clear_the_buffer_and_run_in_travel_order() {
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
                assert_eq!(
                    corners(plane, p, dir, stop),
                    want,
                    "{plane:?} {p} {dir:?} @{stop}"
                );
            }
        }
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
        let mut s = ShardedPlane::new(Plane::new(Rect::new(0, 0, 100, 100).unwrap()));
        let p = Point::new(0, 50);
        let open = s.ray_hit(p, Dir::East);
        assert_eq!(open.stop, 100);
        s.add_obstacle(Rect::new(40, 40, 60, 60).unwrap());
        let blocked = s.ray_hit(p, Dir::East);
        assert_eq!(blocked.stop, 40);
        assert_eq!(blocked.distance, 40);
    }

    #[test]
    fn polygon_obstacles_register_in_buckets() {
        let mut flat = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        let l = crate::RectilinearPolygon::new(vec![
            Point::new(20, 20),
            Point::new(60, 20),
            Point::new(60, 40),
            Point::new(40, 40),
            Point::new(40, 60),
            Point::new(20, 60),
        ])
        .unwrap();
        let id = flat.add_polygon(&l);
        let s = ShardedPlane::with_shard_size(flat, 8);
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
        let (flat, id) = one_block();
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
                let stop = moved.ray_hit(probe, dir).stop;
                assert_eq!(
                    corners(&s, probe, dir, stop),
                    corners(&moved, probe, dir, stop),
                    "shard {shard} probe {probe}"
                );
            }
            assert!(!s.point_free(Point::new(50, 75)));
            assert!(s.point_free(Point::new(35, 35)));
            assert!(!s.translate_obstacle(99, 1, 1), "unknown id");
        }
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

    /// The corner query has two implementations that must agree bit for
    /// bit: the reference plane's linear scan and the sharded plane's
    /// dedicated corner tables. Sweep both across construction and both
    /// mutations, for full and clipped stops, with rays alongside.
    #[test]
    fn bucketed_corners_match_flat_across_mutations() {
        let extent: Coord = 200;
        let bounds = Rect::new(0, 0, extent, extent).unwrap();
        for seed in 0..6u64 {
            let mut flat = Plane::new(bounds);
            for r in seeded_rects(seed, 40, extent) {
                flat.add_obstacle(r);
            }
            let mut bucketed = ShardedPlane::new(flat.clone());

            let check = |flat: &Plane, bucketed: &ShardedPlane| {
                let mut probes = vec![0, extent / 2, extent];
                for &(r, _) in flat.rects().iter().take(12) {
                    probes.push(r.span(Axis::X).lo());
                    probes.push(r.span(Axis::Y).hi());
                }
                probes.sort_unstable();
                probes.dedup();
                for &u in &probes {
                    for &v in &probes {
                        let origin = Point::new(u, v);
                        if !flat.point_free(origin) {
                            continue;
                        }
                        for dir in [Dir::East, Dir::West, Dir::North, Dir::South] {
                            let hit = flat.ray_hit(origin, dir);
                            assert_eq!(bucketed.ray_hit(origin, dir), hit);
                            let mid = (origin.coord(dir.axis()) + hit.stop) / 2;
                            for stop in [hit.stop, mid] {
                                assert_eq!(
                                    corners(bucketed, origin, dir, stop),
                                    corners(flat, origin, dir, stop),
                                    "seed {seed} origin {origin} dir {dir:?} @{stop}"
                                );
                            }
                        }
                    }
                }
            };
            check(&flat, &bucketed);

            // Mutations: translate one obstacle, then insert one.
            let victim = flat.rects()[(seed as usize * 7) % flat.rects().len()].1;
            assert!(bucketed.translate_obstacle(victim, 3, -2));
            assert!(flat.translate_obstacle(victim, 3, -2));
            check(&flat, &bucketed);

            let extra = Rect::new(11, 13, 23, 29).unwrap();
            bucketed.add_obstacle(extra);
            flat.add_obstacle(extra);
            check(&flat, &bucketed);
        }
    }

    #[test]
    fn auto_shard_is_sane() {
        let (flat, _) = one_block();
        let s = ShardedPlane::new(flat);
        assert!(s.shard >= 1);
        assert!(s.nx * s.ny <= MAX_BUCKETS);
    }
}
