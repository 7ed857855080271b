//! The obstacle plane: the routing surface and its ray-tracing queries.
//!
//! This module is the geometric heart of the reproduction. The paper
//! describes a data structure of points "linked to reflect their topological
//! order in both *x* and *y*" over which "an efficient means of ray-tracing
//! is used to expand the frontiers of the search". [`Plane`] provides that
//! service with three queries:
//!
//! * [`Plane::ray_hit`] — how far can a wire travel from a point in a
//!   direction before an obstacle (or the boundary) stops it; this is the
//!   "extend any path as far … as is feasible" primitive,
//! * [`Plane::corner_candidates`] — the obstacle-corner coordinates along a
//!   ray at which a minimal path may usefully turn; this is the "hug cells
//!   as they are encountered" primitive,
//! * [`Plane::segment_free`] / [`Plane::point_free`] — legality checks.
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

/// Result of casting a ray from a point: where movement must stop and what
/// stopped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RayHit {
    /// The coordinate on the ray's axis at which travel stops. Equal to the
    /// origin coordinate when the ray is blocked immediately.
    pub stop: Coord,
    /// Obstacle that stopped the ray, or `None` when the plane boundary did.
    pub blocker: Option<ObstacleId>,
    /// Distance travelled from the origin to `stop` (always ≥ 0).
    pub distance: Coord,
}

/// Which perpendicular turn an obstacle corner anchors.
///
/// When a ray travels along an axis, an obstacle lying on the positive
/// perpendicular side can only be hugged by turning toward it (positive
/// perpendicular direction), and symmetrically for the negative side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TurnSide {
    /// The obstacle lies on the positive-perpendicular side (turn north for
    /// a horizontal ray, east for a vertical one).
    Positive,
    /// The obstacle lies on the negative-perpendicular side.
    Negative,
}

impl TurnSide {
    /// The concrete turn direction for a ray travelling along `ray_axis`.
    #[must_use]
    pub fn turn_dir(self, ray_axis: Axis) -> Dir {
        let perp = ray_axis.perpendicular();
        match self {
            TurnSide::Positive => Dir::positive(perp),
            TurnSide::Negative => Dir::negative(perp),
        }
    }
}

/// The entry-face coordinate at which `r` blocks a ray travelling along
/// `axis` (perpendicular coordinate `w`) from `u0` toward `bound`, or
/// `None` when it does not block.
///
/// This single predicate defines the blocking semantics for **every**
/// plane implementation (flat linear scan, flat indexed scan, sharded
/// bucket walk), so they cannot drift apart: an obstacle blocks when its
/// open perpendicular span straddles the ray line and its interior lies
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

/// Which side of a ray line (perpendicular coordinate `w`) the rectangle
/// lies wholly on, or `None` when it straddles the line (blocking rather
/// than anchoring) or is degenerate. Shared by every plane
/// implementation's corner-candidate enumeration.
pub(crate) fn turn_side_of(r: &Rect, perp: Axis, w: Coord) -> Option<TurnSide> {
    if r.is_degenerate() {
        return None;
    }
    let pv = r.span(perp);
    if pv.lo() >= w && pv.hi() > w {
        Some(TurnSide::Positive)
    } else if pv.hi() <= w && pv.lo() < w {
        Some(TurnSide::Negative)
    } else {
        // Straddles (blocks) or is perpendicular-degenerate on the ray
        // line; either way its corners anchor nothing new.
        None
    }
}

/// The canonical ordering + dedup applied to corner candidates by every
/// plane implementation: sorted by distance from the origin (positive
/// side first on ties, then lowest obstacle id), deduplicated by
/// `(at, side)`. Operates in place so buffer-reusing callers pay no
/// allocation.
pub(crate) fn finish_corner_candidates(out: &mut Vec<CornerCandidate>, positive: bool) {
    if positive {
        out.sort_by_key(|c| (c.at, c.side == TurnSide::Negative, c.obstacle));
    } else {
        out.sort_by_key(|c| {
            (
                std::cmp::Reverse(c.at),
                c.side == TurnSide::Negative,
                c.obstacle,
            )
        });
    }
    out.dedup_by_key(|c| (c.at, c.side));
}

/// A coordinate along a ray at which a minimal path may usefully turn,
/// because it aligns with a corner of some obstacle on the turning side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CornerCandidate {
    /// Coordinate along the ray axis.
    pub at: Coord,
    /// The obstacle whose corner anchors this candidate.
    pub obstacle: ObstacleId,
    /// The side the obstacle lies on (hence the useful turn direction).
    pub side: TurnSide,
}

/// The routing surface: a bounded plane containing rectangular obstacles.
///
/// ```
/// use gcr_geom::{Dir, Plane, Point, Rect};
/// # fn main() -> Result<(), gcr_geom::GeomError> {
/// let mut plane = Plane::new(Rect::new(0, 0, 100, 100)?);
/// let block = plane.add_obstacle(Rect::new(30, 30, 70, 70)?);
///
/// let hit = plane.ray_hit(Point::new(10, 50), Dir::East);
/// assert_eq!((hit.stop, hit.blocker), (30, Some(block)));
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
    /// Number of live obstacles (polygons count once; removal decrements).
    obstacle_count: usize,
    /// Next id to allocate. Ids are never reused, so removing an obstacle
    /// keeps every other id stable.
    next_id: ObstacleId,
    index: Option<TopoIndex>,
}

/// The paper's "topological ordering" of the geometry: obstacle entry
/// faces sorted per axis and direction, so a ray finds its first blocker
/// by scanning forward from a binary-searched start instead of visiting
/// every obstacle. ("Points are linked to reflect their topological order
/// in both x and y … an efficient means of ray-tracing is used to expand
/// the frontiers of the search.")
#[derive(Debug, Clone)]
struct TopoIndex {
    /// `(xmin, rect index)` ascending — entry faces for eastward rays.
    xmin: Vec<(Coord, u32)>,
    /// `(xmax, rect index)` ascending — entry faces for westward rays.
    xmax: Vec<(Coord, u32)>,
    /// `(ymin, rect index)` ascending — entry faces for northward rays.
    ymin: Vec<(Coord, u32)>,
    /// `(ymax, rect index)` ascending — entry faces for southward rays.
    ymax: Vec<(Coord, u32)>,
}

impl TopoIndex {
    fn build(rects: &[(Rect, ObstacleId)]) -> TopoIndex {
        let mut xmin = Vec::with_capacity(rects.len());
        let mut xmax = Vec::with_capacity(rects.len());
        let mut ymin = Vec::with_capacity(rects.len());
        let mut ymax = Vec::with_capacity(rects.len());
        for (i, (r, _)) in rects.iter().enumerate() {
            let i = i as u32;
            xmin.push((r.xmin(), i));
            xmax.push((r.xmax(), i));
            ymin.push((r.ymin(), i));
            ymax.push((r.ymax(), i));
        }
        xmin.sort_unstable();
        xmax.sort_unstable();
        ymin.sort_unstable();
        ymax.sort_unstable();
        TopoIndex {
            xmin,
            xmax,
            ymin,
            ymax,
        }
    }

    /// Entry-face list for rays travelling along `axis` in the positive or
    /// negative direction.
    fn entries(&self, axis: Axis, positive: bool) -> &[(Coord, u32)] {
        match (axis, positive) {
            (Axis::X, true) => &self.xmin,
            (Axis::X, false) => &self.xmax,
            (Axis::Y, true) => &self.ymin,
            (Axis::Y, false) => &self.ymax,
        }
    }

    /// Exit-face list (the far corners) for the same ray direction.
    fn exits(&self, axis: Axis, positive: bool) -> &[(Coord, u32)] {
        match (axis, positive) {
            (Axis::X, true) => &self.xmax,
            (Axis::X, false) => &self.xmin,
            (Axis::Y, true) => &self.ymax,
            (Axis::Y, false) => &self.ymin,
        }
    }

    /// Inserts one rectangle's faces by binary search, keeping every list
    /// exactly as a full rebuild would leave it: the lists hold unique
    /// `(coordinate, rect index)` tuples in ascending tuple order, and
    /// `sort_unstable` on unique keys is a deterministic total order — so
    /// `partition_point` insertion lands each entry at the identical
    /// position, in O(log n) search + one memmove instead of a full
    /// re-sort. `crates/geom/tests/sharded.rs` holds the differential
    /// against the rebuild path.
    fn insert(&mut self, rect: &Rect, ri: u32) {
        fn insert_sorted(list: &mut Vec<(Coord, u32)>, entry: (Coord, u32)) {
            let at = list.partition_point(|e| *e < entry);
            list.insert(at, entry);
        }
        insert_sorted(&mut self.xmin, (rect.xmin(), ri));
        insert_sorted(&mut self.xmax, (rect.xmax(), ri));
        insert_sorted(&mut self.ymin, (rect.ymin(), ri));
        insert_sorted(&mut self.ymax, (rect.ymax(), ri));
    }

    /// Removes one rectangle's faces (the exact inverse of
    /// [`TopoIndex::insert`]): each list holds unique `(coordinate, rect
    /// index)` tuples, so `partition_point` lands on the entry directly
    /// and the removal is O(log n) search + one memmove per list.
    fn remove(&mut self, rect: &Rect, ri: u32) {
        fn remove_sorted(list: &mut Vec<(Coord, u32)>, entry: (Coord, u32)) {
            let at = list.partition_point(|e| *e < entry);
            debug_assert_eq!(list.get(at), Some(&entry), "face entry must exist");
            list.remove(at);
        }
        remove_sorted(&mut self.xmin, (rect.xmin(), ri));
        remove_sorted(&mut self.xmax, (rect.xmax(), ri));
        remove_sorted(&mut self.ymin, (rect.ymin(), ri));
        remove_sorted(&mut self.ymax, (rect.ymax(), ri));
    }
}

impl Plane {
    /// Creates an empty plane with the given routing boundary.
    #[must_use]
    pub fn new(bounds: Rect) -> Plane {
        Plane {
            bounds,
            rects: Vec::new(),
            obstacle_count: 0,
            next_id: 0,
            index: None,
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
    /// empty). A built [`Plane::build_index`] is maintained incrementally
    /// (sorted insertion, O(log n) per face list), so indexed planes stay
    /// indexed across mutation.
    pub fn add_obstacle(&mut self, rect: Rect) -> ObstacleId {
        let id = self.next_id;
        self.next_id += 1;
        self.obstacle_count += 1;
        let ri = self.rects.len() as u32;
        self.rects.push((rect, id));
        if let Some(ix) = &mut self.index {
            ix.insert(&rect, ri);
        }
        id
    }

    /// Adds a batch of rectangular obstacles in one step, returning the
    /// contiguous id range allocated (one id per rectangle, in `rects`
    /// order — exactly the ids N calls to [`Plane::add_obstacle`] would
    /// allocate).
    ///
    /// On an indexed plane this is the **bulk-build path**: the
    /// rectangles are appended and the topological index is rebuilt once
    /// by sort (O((N+M) log (N+M))) instead of maintained by M sorted
    /// insertions (each an O(N) memmove, O(M·N) total). Large generated
    /// instances and batched ECOs construct through here; the result is
    /// indistinguishable from incremental insertion because both leave
    /// the face lists in ascending unique-tuple order.
    pub fn add_obstacles(&mut self, rects: &[Rect]) -> std::ops::Range<ObstacleId> {
        let first = self.next_id;
        self.rects.reserve(rects.len());
        for &rect in rects {
            let id = self.next_id;
            self.next_id += 1;
            self.obstacle_count += 1;
            self.rects.push((rect, id));
        }
        if self.index.is_some() {
            self.build_index();
        }
        first..self.next_id
    }

    /// Builds an **indexed** plane from a batch of obstacles in one step:
    /// every rectangle is appended first and the ray-tracing index is
    /// built once via sort, never touched incrementally. This is the
    /// preferred constructor for large instances: it builds the same
    /// plane as indexed incremental insertion (O(N) memmove per insert)
    /// in one O(N log N) sort.
    #[must_use]
    pub fn with_obstacles(bounds: Rect, rects: &[Rect]) -> Plane {
        let mut plane = Plane::new(bounds);
        plane.add_obstacles(rects);
        plane.build_index();
        plane
    }

    /// Adds a rectilinear-polygon obstacle (decomposed into rectangles that
    /// share one id) and returns the id. A built index is maintained
    /// incrementally, as in [`Plane::add_obstacle`].
    pub fn add_polygon(&mut self, polygon: &RectilinearPolygon) -> ObstacleId {
        let id = self.next_id;
        self.next_id += 1;
        self.obstacle_count += 1;
        // The overlapping cover is required here: a pure partition would
        // leave interior seams a wire could legally run through.
        for r in polygon.decompose_overlapping() {
            let ri = self.rects.len() as u32;
            self.rects.push((r, id));
            if let Some(ix) = &mut self.index {
                ix.insert(&r, ri);
            }
        }
        id
    }

    /// Builds the topological ray-tracing index (sorted entry faces per
    /// axis). Queries work without it by linear scan; with it, ray casts
    /// binary-search their starting face. Once built, the index is kept
    /// current by obstacle insertion (incremental sorted insert), so a
    /// rebuild is only ever needed to index a plane that was never
    /// indexed.
    pub fn build_index(&mut self) {
        self.index = Some(TopoIndex::build(&self.rects));
    }

    /// Returns `true` when the ray-tracing index is built and current.
    #[must_use]
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// Translates every rectangle of obstacle `id` by `(dx, dy)` in
    /// place, returning `false` when the id is unknown (or was removed).
    ///
    /// This is the incremental-layout mutation an ECO flow makes when a
    /// cell moves: the rectangle *slots* are overwritten, so the rect list
    /// order — and with it every tie-break that depends on insertion
    /// order — stays exactly what a fresh plane built from the mutated
    /// layout would have. A built index is maintained by targeted face
    /// removal + re-insertion (O(log n) + memmove per face list).
    pub fn translate_obstacle(&mut self, id: ObstacleId, dx: Coord, dy: Coord) -> bool {
        let mut found = false;
        for ri in 0..self.rects.len() {
            if self.rects[ri].1 != id {
                continue;
            }
            found = true;
            let old = self.rects[ri].0;
            let new = old.translate(dx, dy);
            if let Some(ix) = &mut self.index {
                ix.remove(&old, ri as u32);
                ix.insert(&new, ri as u32);
            }
            self.rects[ri].0 = new;
        }
        found
    }

    /// Removes obstacle `id` (every rectangle carrying it), returning
    /// `false` when the id is unknown or already removed.
    ///
    /// Ids are **never reused**: every other obstacle keeps its id, so
    /// handles held by callers stay valid. Removal compacts the rectangle
    /// list (later rectangles shift down), so a built index is rebuilt
    /// rather than patched — removal is the rare structural mutation; the
    /// common ECO move is [`Plane::translate_obstacle`], which is
    /// incremental.
    pub fn remove_obstacle(&mut self, id: ObstacleId) -> bool {
        let before = self.rects.len();
        self.rects.retain(|(_, i)| *i != id);
        if self.rects.len() == before {
            return false;
        }
        self.obstacle_count -= 1;
        if self.index.is_some() {
            self.build_index();
        }
        true
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
        if self.index.is_some() {
            // With the index a segment check is one ray cast: the segment
            // is free iff the ray from a toward b is not stopped short.
            if !self.point_free(a) {
                return false;
            }
            let dir = a.dir_toward(b).expect("checked axis-aligned, a != b");
            let hit = self.ray_cast(a, dir);
            return hit.distance >= a.manhattan(b);
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
        self.ray_cast(origin, dir)
    }

    /// Ray casting without the free-origin debug assertion (used internally
    /// where the origin has already been validated).
    fn ray_cast(&self, origin: Point, dir: Dir) -> RayHit {
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

        let (stop, blocker) = match &self.index {
            Some(ix) => self.ray_scan_indexed(ix, axis, positive, u0, w, perp, bound),
            None => self.ray_scan_linear(axis, positive, u0, w, perp, bound),
        };
        // The origin may sit outside an obstacle but level with the boundary
        // in a way that already blocks (e.g. on a face moving inward): then
        // stop lands on u0 and distance is 0.
        let distance = if positive { stop - u0 } else { u0 - stop };
        debug_assert!(distance >= 0, "ray travelled backwards");
        RayHit {
            stop,
            blocker,
            distance,
        }
    }

    fn ray_scan_linear(
        &self,
        axis: Axis,
        positive: bool,
        u0: Coord,
        w: Coord,
        perp: Axis,
        bound: Coord,
    ) -> (Coord, Option<ObstacleId>) {
        let mut stop = bound;
        let mut blocker = None;
        for (r, id) in &self.rects {
            let Some(entry) = ray_entry(r, axis, perp, positive, u0, w, bound) else {
                continue;
            };
            // Strict comparison: the first (lowest-index) rect wins ties.
            if (positive && entry < stop) || (!positive && entry > stop) {
                stop = entry;
                blocker = Some(*id);
            }
        }
        (stop, blocker)
    }

    /// Indexed ray scan: walk the sorted entry faces from the first face at
    /// or beyond the origin; the first obstacle whose perpendicular span
    /// straddles the ray line is the nearest blocker.
    #[allow(clippy::too_many_arguments)]
    fn ray_scan_indexed(
        &self,
        ix: &TopoIndex,
        axis: Axis,
        positive: bool,
        u0: Coord,
        w: Coord,
        perp: Axis,
        bound: Coord,
    ) -> (Coord, Option<ObstacleId>) {
        let entries = ix.entries(axis, positive);
        let hit = |ri: u32| -> Option<ObstacleId> {
            let (r, id) = &self.rects[ri as usize];
            (!r.is_degenerate() && r.span(perp).contains_open(w)).then_some(*id)
        };
        if positive {
            let start = entries.partition_point(|&(c, _)| c < u0);
            for &(c, ri) in &entries[start..] {
                if c >= bound {
                    break;
                }
                if let Some(id) = hit(ri) {
                    return (c, Some(id));
                }
            }
        } else {
            let end = entries.partition_point(|&(c, _)| c <= u0);
            let mut it = entries[..end].iter().rev();
            while let Some(&(c, ri)) = it.next() {
                if c <= bound {
                    break;
                }
                if let Some(id) = hit(ri) {
                    // Entries sharing this coordinate follow in descending
                    // rect order; the linear scan's tie-break is the
                    // *lowest* rect index, so keep scanning the tie group.
                    let mut best = id;
                    for &(c2, ri2) in it {
                        if c2 != c {
                            break;
                        }
                        if let Some(id2) = hit(ri2) {
                            best = id2;
                        }
                    }
                    return (c, Some(best));
                }
            }
        }
        (bound, None)
    }

    /// Enumerates the obstacle-corner coordinates along a ray from `origin`
    /// in `dir`, up to and including `stop` (normally the
    /// [`RayHit::stop`] of the same ray).
    ///
    /// Each candidate records which perpendicular turn it anchors: an
    /// obstacle wholly on the positive-perpendicular side of the ray line
    /// can only be hugged by turning toward it. Obstacles that straddle the
    /// ray line block it and are never candidates. The result is sorted by
    /// distance from the origin and deduplicated by `(at, side)`.
    ///
    /// Allocating wrapper over [`Plane::corner_candidates_into`]; hot
    /// callers reuse a buffer through the `_into` form.
    #[must_use]
    pub fn corner_candidates(&self, origin: Point, dir: Dir, stop: Coord) -> Vec<CornerCandidate> {
        let mut out = Vec::new();
        self.corner_candidates_into(origin, dir, stop, &mut out);
        out
    }

    /// Buffer-reuse form of [`Plane::corner_candidates`]: clears `out` and
    /// fills it with the same candidates in the same order, allocating
    /// only if the buffer's capacity is insufficient.
    pub fn corner_candidates_into(
        &self,
        origin: Point,
        dir: Dir,
        stop: Coord,
        out: &mut Vec<CornerCandidate>,
    ) {
        out.clear();
        self.slab_corners(origin, dir, stop, |at, obstacle, side| {
            out.push(CornerCandidate { at, obstacle, side });
        });
        finish_corner_candidates(out, dir.sign() > 0);
    }

    /// Appends the distinct `at` values of [`Plane::corner_candidates`]
    /// to `out`, in travel order (nearest to the origin first). The same
    /// slab scan, sorting and deduplicating bare coordinates in place.
    pub fn corner_stops_into(&self, origin: Point, dir: Dir, stop: Coord, out: &mut Vec<Coord>) {
        let start = out.len();
        self.slab_corners(origin, dir, stop, |at, _, _| out.push(at));
        let found = &mut out[start..];
        if dir.sign() > 0 {
            found.sort_unstable();
        } else {
            found.sort_unstable_by(|a, b| b.cmp(a));
        }
        let mut len = start;
        for i in start..out.len() {
            if len == start || out[i] != out[len - 1] {
                out[len] = out[i];
                len += 1;
            }
        }
        out.truncate(len);
    }

    /// The slab scan behind both corner queries: reports every anchoring
    /// `(at, obstacle, side)` ahead of the origin up to `stop`, unsorted
    /// and with duplicates.
    fn slab_corners(
        &self,
        origin: Point,
        dir: Dir,
        stop: Coord,
        mut found: impl FnMut(Coord, ObstacleId, TurnSide),
    ) {
        let axis = dir.axis();
        let perp = axis.perpendicular();
        let u0 = origin.coord(axis);
        let w = origin.coord(perp);
        let positive = dir.sign() > 0;
        let ahead = |c: Coord| {
            if positive {
                c > u0 && c <= stop
            } else {
                c < u0 && c >= stop
            }
        };
        let classify = |r: &Rect| -> Option<TurnSide> { turn_side_of(r, perp, w) };
        match &self.index {
            Some(ix) => {
                // Both corner coordinates of an obstacle appear once across
                // the entry and exit lists; slice each to the ray's range.
                for list in [ix.entries(axis, positive), ix.exits(axis, positive)] {
                    // Positive rays need coordinates in (u0, stop];
                    // negative rays need [stop, u0).
                    let from = if positive {
                        list.partition_point(|&(c, _)| c <= u0)
                    } else {
                        list.partition_point(|&(c, _)| c < stop)
                    };
                    for &(c, ri) in &list[from..] {
                        if (positive && c > stop) || (!positive && c >= u0) {
                            break;
                        }
                        debug_assert!(ahead(c), "sliced range must be ahead");
                        let (r, id) = &self.rects[ri as usize];
                        if let Some(side) = classify(r) {
                            found(c, *id, side);
                        }
                    }
                }
            }
            None => {
                for (r, id) in &self.rects {
                    let Some(side) = classify(r) else { continue };
                    let m = r.span(axis);
                    for c in [m.lo(), m.hi()] {
                        if ahead(c) {
                            found(c, *id, side);
                        }
                    }
                }
            }
        }
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
        let (p, id) = plane_one_block();
        let hit = p.ray_hit(Point::new(0, 50), Dir::East);
        assert_eq!(
            hit,
            RayHit {
                stop: 30,
                blocker: Some(id),
                distance: 30
            }
        );
        let hit = p.ray_hit(Point::new(100, 50), Dir::West);
        assert_eq!(
            hit,
            RayHit {
                stop: 70,
                blocker: Some(id),
                distance: 30
            }
        );
        let hit = p.ray_hit(Point::new(50, 0), Dir::North);
        assert_eq!(
            hit,
            RayHit {
                stop: 30,
                blocker: Some(id),
                distance: 30
            }
        );
        let hit = p.ray_hit(Point::new(50, 100), Dir::South);
        assert_eq!(
            hit,
            RayHit {
                stop: 70,
                blocker: Some(id),
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
                blocker: None,
                distance: 100
            }
        );
        // Along the face line: hugging, not blocked.
        let hit = p.ray_hit(Point::new(0, 30), Dir::East);
        assert_eq!(
            hit,
            RayHit {
                stop: 100,
                blocker: None,
                distance: 100
            }
        );
    }

    #[test]
    fn ray_from_face_moving_inward_stops_immediately() {
        let (p, id) = plane_one_block();
        let hit = p.ray_hit(Point::new(30, 50), Dir::East);
        assert_eq!(
            hit,
            RayHit {
                stop: 30,
                blocker: Some(id),
                distance: 0
            }
        );
        let hit = p.ray_hit(Point::new(70, 50), Dir::West);
        assert_eq!(
            hit,
            RayHit {
                stop: 70,
                blocker: Some(id),
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
                blocker: None,
                distance: 30
            }
        );
    }

    #[test]
    fn nearest_of_two_blockers_wins() {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        let near = p.add_obstacle(Rect::new(20, 40, 30, 60).unwrap());
        let _far = p.add_obstacle(Rect::new(50, 40, 60, 60).unwrap());
        let hit = p.ray_hit(Point::new(0, 50), Dir::East);
        assert_eq!((hit.stop, hit.blocker), (20, Some(near)));
    }

    #[test]
    fn indexed_and_linear_scans_break_entry_face_ties_identically() {
        // Regression: two obstacles sharing one exit face (x = 60). The
        // linear scan awards the tie to the first-inserted rect; the
        // indexed westward scan used to return the last-inserted one.
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        let first = p.add_obstacle(Rect::new(40, 40, 60, 55).unwrap());
        let _second = p.add_obstacle(Rect::new(30, 45, 60, 60).unwrap());
        let linear = p.ray_hit(Point::new(100, 50), Dir::West);
        p.build_index();
        let indexed = p.ray_hit(Point::new(100, 50), Dir::West);
        assert_eq!(linear, indexed);
        assert_eq!(indexed.blocker, Some(first));
    }

    #[test]
    fn degenerate_obstacles_never_block() {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        p.add_obstacle(Rect::new(50, 0, 50, 100).unwrap()); // zero width
        let hit = p.ray_hit(Point::new(0, 50), Dir::East);
        assert_eq!(hit.blocker, None);
        assert!(p.segment_free(Point::new(0, 50), Point::new(100, 50)));
    }

    #[test]
    fn corner_candidates_sides_and_order() {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        let above = p.add_obstacle(Rect::new(20, 60, 40, 80).unwrap());
        let below = p.add_obstacle(Rect::new(50, 10, 65, 40).unwrap());
        let hit = p.ray_hit(Point::new(0, 50), Dir::East);
        assert_eq!(hit.blocker, None);
        let cands = p.corner_candidates(Point::new(0, 50), Dir::East, hit.stop);
        let ats: Vec<(Coord, TurnSide, ObstacleId)> =
            cands.iter().map(|c| (c.at, c.side, c.obstacle)).collect();
        assert_eq!(
            ats,
            vec![
                (20, TurnSide::Positive, above),
                (40, TurnSide::Positive, above),
                (50, TurnSide::Negative, below),
                (65, TurnSide::Negative, below),
            ]
        );
    }

    #[test]
    fn corner_candidates_respect_stop_and_direction() {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        p.add_obstacle(Rect::new(20, 60, 40, 80).unwrap());
        // Stop short of the second corner.
        let cands = p.corner_candidates(Point::new(0, 50), Dir::East, 30);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].at, 20);
        // Westward from the right side sees them in reverse order.
        let cands = p.corner_candidates(Point::new(100, 50), Dir::West, 0);
        let ats: Vec<Coord> = cands.iter().map(|c| c.at).collect();
        assert_eq!(ats, vec![40, 20]);
    }

    #[test]
    fn corner_candidates_exclude_straddling_blockers() {
        let (p, _) = plane_one_block();
        // The block straddles y=50, so it blocks rather than anchors.
        let cands = p.corner_candidates(Point::new(0, 50), Dir::East, 30);
        assert!(cands.is_empty());
    }

    #[test]
    fn touching_obstacle_anchors_from_the_face_line() {
        let (p, id) = plane_one_block();
        // Ray along the south face line (y=30): block lies on +y side.
        let cands = p.corner_candidates(Point::new(0, 30), Dir::East, 100);
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().all(|c| c.side == TurnSide::Positive));
        assert!(cands.iter().all(|c| c.obstacle == id));
        assert_eq!(cands[0].at, 30);
        assert_eq!(cands[1].at, 70);
    }

    #[test]
    fn vertical_ray_candidates() {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        let east_side = p.add_obstacle(Rect::new(60, 20, 80, 40).unwrap());
        let cands = p.corner_candidates(Point::new(50, 0), Dir::North, 100);
        let ats: Vec<(Coord, TurnSide)> = cands.iter().map(|c| (c.at, c.side)).collect();
        assert_eq!(
            ats,
            vec![(20, TurnSide::Positive), (40, TurnSide::Positive)]
        );
        assert_eq!(cands[0].side.turn_dir(Axis::Y), Dir::East);
        assert_eq!(cands[0].obstacle, east_side);
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
    fn translate_obstacle_moves_queries_and_maintains_index() {
        let (mut p, id) = plane_one_block();
        p.build_index();
        assert!(p.translate_obstacle(id, 10, -5));
        // The moved block now spans [40,80] × [25,65].
        assert!(p.point_free(Point::new(35, 50)));
        assert!(!p.point_free(Point::new(75, 50)));
        let hit = p.ray_hit(Point::new(0, 50), Dir::East);
        assert_eq!((hit.stop, hit.blocker), (40, Some(id)));
        // The maintained index answers exactly like a rebuilt one.
        let mut rebuilt = p.clone();
        rebuilt.build_index();
        for y in [0, 25, 30, 50, 65, 100] {
            assert_eq!(
                p.ray_hit(Point::new(0, y), Dir::East),
                rebuilt.ray_hit(Point::new(0, y), Dir::East),
                "y={y}"
            );
            assert_eq!(
                p.corner_candidates(Point::new(0, y), Dir::East, 100),
                rebuilt.corner_candidates(Point::new(0, y), Dir::East, 100),
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
        let b = p.add_obstacle(Rect::new(50, 40, 60, 60).unwrap());
        p.build_index();
        assert!(p.translate_obstacle(a, 40, 0)); // now coincident with b
        assert_eq!(p.rects()[0], (Rect::new(50, 40, 60, 60).unwrap(), a));
        let hit = p.ray_hit(Point::new(0, 50), Dir::East);
        assert_eq!(hit.blocker, Some(a), "lowest slot wins the tie");
        let _ = b;
    }

    #[test]
    fn remove_obstacle_keeps_other_ids_stable() {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        let a = p.add_obstacle(Rect::new(10, 40, 20, 60).unwrap());
        let b = p.add_obstacle(Rect::new(50, 40, 60, 60).unwrap());
        p.build_index();
        assert!(p.remove_obstacle(a));
        assert!(!p.remove_obstacle(a), "already removed");
        assert_eq!(p.obstacle_count(), 1);
        let hit = p.ray_hit(Point::new(0, 50), Dir::East);
        assert_eq!((hit.stop, hit.blocker), (50, Some(b)), "b keeps its id");
        // Ids are never reused.
        let c = p.add_obstacle(Rect::new(70, 40, 80, 60).unwrap());
        assert_ne!(c, a);
        assert_ne!(c, b);
    }

    #[test]
    fn bulk_add_matches_incremental_insertion() {
        // The bulk path must be indistinguishable from N incremental
        // inserts: same ids, same rect slots, same query answers.
        let rects: Vec<Rect> = (0..40)
            .map(|i| {
                let x = (i % 8) * 12 + 3;
                let y = (i / 8) * 12 + 3;
                Rect::new(x, y, x + 6, y + 6).unwrap()
            })
            .collect();
        let bounds = Rect::new(0, 0, 100, 100).unwrap();
        let mut incremental = Plane::new(bounds);
        incremental.build_index();
        let inc_ids: Vec<ObstacleId> = rects.iter().map(|&r| incremental.add_obstacle(r)).collect();
        let bulk = Plane::with_obstacles(bounds, &rects);
        assert!(bulk.has_index());
        let mut appended = Plane::new(bounds);
        appended.build_index();
        let ids = appended.add_obstacles(&rects);
        assert_eq!(ids.clone().collect::<Vec<_>>(), inc_ids);
        assert_eq!(bulk.rects(), incremental.rects());
        assert_eq!(appended.rects(), incremental.rects());
        for y in [0, 3, 9, 15, 50, 99] {
            for dir in [Dir::East, Dir::West] {
                let p = if dir == Dir::East {
                    Point::new(0, y)
                } else {
                    Point::new(100, y)
                };
                assert_eq!(bulk.ray_hit(p, dir), incremental.ray_hit(p, dir), "y={y}");
                assert_eq!(appended.ray_hit(p, dir), incremental.ray_hit(p, dir));
                let stop = incremental.ray_hit(p, dir).stop;
                assert_eq!(
                    bulk.corner_candidates(p, dir, stop),
                    incremental.corner_candidates(p, dir, stop),
                    "y={y}"
                );
            }
        }
    }

    #[test]
    fn bulk_add_on_unindexed_plane_stays_unindexed() {
        let mut p = Plane::new(Rect::new(0, 0, 50, 50).unwrap());
        p.add_obstacles(&[Rect::new(10, 10, 20, 20).unwrap()]);
        assert!(!p.has_index());
        assert_eq!(p.obstacle_count(), 1);
        assert!(!p.point_free(Point::new(15, 15)));
    }

    #[test]
    fn remove_polygon_obstacle_removes_every_rect() {
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
        assert!(p.remove_obstacle(id));
        assert_eq!(p.obstacle_count(), 0);
        assert!(p.rects().is_empty());
        assert!(p.point_free(Point::new(30, 30)));
    }
}
