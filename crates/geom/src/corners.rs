//! Bucketed corner-candidate tables: perpendicular-distance pruning for
//! [`corner_candidates`](crate::Plane::corner_candidates) queries.
//!
//! The flat plane answers a corner query by scanning **every** face in
//! the ray's coordinate slab and sorting what survives — cost
//! proportional to all obstacles sharing the slab, regardless of how far
//! from the ray line they sit. [`CornerIndex`] restructures the same
//! faces so a query pays only for the *distinct face coordinates* in the
//! slab, with the perpendicular dimension resolved by binary search:
//!
//! * per ray axis, the distinct face coordinates are kept sorted
//!   (`coords`), each with a **column** of the rectangles owning a face
//!   there;
//! * a column stores its rectangles twice: keyed by the low
//!   perpendicular edge (ascending, with a *suffix*-minimum obstacle-id
//!   table) and by the high perpendicular edge (ascending, with a
//!   *prefix*-minimum table). For a ray line at `w`, the rectangles
//!   wholly on the positive side are exactly the suffix with
//!   `perp_lo ≥ w`, and the negative side is the prefix with
//!   `perp_hi ≤ w` — so the one surviving candidate per `(coord, side)`
//!   (the minimum obstacle id, per the canonical dedup in
//!   [`finish_corner_candidates`](crate::plane::finish_corner_candidates))
//!   is a single `partition_point` plus a table lookup.
//!
//! Because columns are visited in coordinate order and each emits its
//! Positive candidate before its Negative one, the output needs **no
//! sort and no dedup**: it is constructed directly in the canonical
//! order the flat plane produces. Bit-identity against the flat slab
//! scan is locked by the differential suites (`tests/plane_equivalence.rs`,
//! `crates/geom/tests/sharded.rs`).
//!
//! The successor generator needs only the coordinates, not the anchoring
//! obstacle or side, so each axis also keeps a compact `reach` array
//! parallel to `coords`: a column's `(max perp_lo, min perp_hi)`. A
//! coordinate anchors a turn from the ray line `w` exactly when
//! `max_lo ≥ w` (some rectangle wholly on the positive side) or
//! `min_hi ≤ w` (one wholly on the negative side), so
//! [`CornerIndex::stops_into`] answers from two contiguous arrays and
//! never touches a column.
//!
//! Degenerate rectangles never anchor a turn (see
//! [`turn_side_of`](crate::plane::turn_side_of)) and are excluded at
//! insertion; straddling rectangles are excluded per query by the `w`
//! threshold tests.

use crate::{Axis, Coord, CornerCandidate, Dir, ObstacleId, Point, Rect, TurnSide};

/// The corner tables of one ray axis: distinct face coordinates with a
/// [`Column`] each.
#[derive(Debug, Clone, Default)]
struct AxisCorners {
    /// Distinct face coordinates on the ray axis, ascending.
    coords: Vec<Coord>,
    /// Parallel to `coords`: each column's [`Column::reach`].
    reach: Vec<(Coord, Coord)>,
    /// Parallel to `coords`.
    columns: Vec<Column>,
}

/// The rectangles owning a face at one coordinate, keyed for both turn
/// sides.
#[derive(Debug, Clone, Default)]
struct Column {
    /// `(perp_lo, obstacle)` ascending. For a ray line at `w`, the
    /// suffix with `perp_lo ≥ w` is exactly the positive-side set
    /// (non-degeneracy guarantees `perp_hi > perp_lo ≥ w`).
    pos: Vec<(Coord, ObstacleId)>,
    /// `pos_min[i]` = minimum obstacle id over `pos[i..]`.
    pos_min: Vec<ObstacleId>,
    /// `(perp_hi, obstacle)` ascending. The prefix with `perp_hi ≤ w`
    /// is the negative-side set (`perp_lo < perp_hi ≤ w`).
    neg: Vec<(Coord, ObstacleId)>,
    /// `neg_min[i]` = minimum obstacle id over `neg[..=i]`.
    neg_min: Vec<ObstacleId>,
}

impl Column {
    /// Rebuilds both running-minimum tables after a face insert/remove
    /// (O(len); columns hold only the rects sharing one coordinate).
    fn recompute_mins(&mut self) {
        self.pos_min.clear();
        self.pos_min.resize(self.pos.len(), 0);
        let mut min = ObstacleId::MAX;
        for i in (0..self.pos.len()).rev() {
            min = min.min(self.pos[i].1);
            self.pos_min[i] = min;
        }
        self.neg_min.clear();
        self.neg_min.resize(self.neg.len(), 0);
        let mut min = ObstacleId::MAX;
        for (i, &(_, id)) in self.neg.iter().enumerate() {
            min = min.min(id);
            self.neg_min[i] = min;
        }
    }

    fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// `(max perp_lo, min perp_hi)` of a non-empty column: a ray line at
    /// `w` finds a positive-side rectangle iff `max_lo ≥ w` and a
    /// negative-side one iff `min_hi ≤ w` — exactly when
    /// [`Column::positive_at`] or [`Column::negative_at`] is `Some`.
    fn reach(&self) -> (Coord, Coord) {
        (self.pos[self.pos.len() - 1].0, self.neg[0].0)
    }

    /// The minimum obstacle id among rectangles wholly on the positive
    /// side of the ray line `w`, if any.
    fn positive_at(&self, w: Coord) -> Option<ObstacleId> {
        let k = self.pos.partition_point(|&(lo, _)| lo < w);
        (k < self.pos.len()).then(|| self.pos_min[k])
    }

    /// The minimum obstacle id among rectangles wholly on the negative
    /// side of the ray line `w`, if any.
    fn negative_at(&self, w: Coord) -> Option<ObstacleId> {
        let k = self.neg.partition_point(|&(hi, _)| hi <= w);
        (k > 0).then(|| self.neg_min[k - 1])
    }
}

impl AxisCorners {
    /// Inserts one face: the owning rectangle, keyed by both
    /// perpendicular edges, into the column at `c` (created if absent).
    fn insert_face(&mut self, c: Coord, lo: Coord, hi: Coord, id: ObstacleId) {
        let i = match self.coords.binary_search(&c) {
            Ok(i) => i,
            Err(i) => {
                self.coords.insert(i, c);
                self.reach.insert(i, (lo, hi));
                self.columns.insert(i, Column::default());
                i
            }
        };
        let col = &mut self.columns[i];
        let at = col.pos.partition_point(|e| *e < (lo, id));
        col.pos.insert(at, (lo, id));
        let at = col.neg.partition_point(|e| *e < (hi, id));
        col.neg.insert(at, (hi, id));
        col.recompute_mins();
        self.reach[i] = col.reach();
    }

    /// Removes one face (the exact inverse of
    /// [`AxisCorners::insert_face`]); a drained column is dropped so
    /// queries never walk empty coordinates.
    fn remove_face(&mut self, c: Coord, lo: Coord, hi: Coord, id: ObstacleId) {
        let Ok(i) = self.coords.binary_search(&c) else {
            debug_assert!(false, "face coordinate must be present");
            return;
        };
        let emptied = {
            let col = &mut self.columns[i];
            let at = col.pos.partition_point(|e| *e < (lo, id));
            debug_assert_eq!(col.pos.get(at), Some(&(lo, id)), "face must exist");
            col.pos.remove(at);
            let at = col.neg.partition_point(|e| *e < (hi, id));
            debug_assert_eq!(col.neg.get(at), Some(&(hi, id)), "face must exist");
            col.neg.remove(at);
            col.recompute_mins();
            col.is_empty()
        };
        if emptied {
            self.coords.remove(i);
            self.reach.remove(i);
            self.columns.remove(i);
        } else {
            self.reach[i] = self.columns[i].reach();
        }
    }

    /// The indices of the coordinates strictly ahead of `u0` up to and
    /// including `stop`: `(u0, stop]` for a positive ray, `[stop, u0)`
    /// for a negative one (ascending either way; empty when `stop` lies
    /// behind the origin).
    fn ahead(&self, u0: Coord, stop: Coord, positive: bool) -> std::ops::Range<usize> {
        let (lo, hi) = if positive {
            (
                self.coords.partition_point(|&c| c <= u0),
                self.coords.partition_point(|&c| c <= stop),
            )
        } else {
            (
                self.coords.partition_point(|&c| c < stop),
                self.coords.partition_point(|&c| c < u0),
            )
        };
        lo..hi.max(lo)
    }
}

/// The bucketed corner-candidate index of a plane: one [`AxisCorners`]
/// per ray axis, built in O(N log N) and maintained per mutation.
#[derive(Debug, Clone, Default)]
pub(crate) struct CornerIndex {
    /// Face coordinates on [`Axis::X`] (vertical faces, queried by
    /// horizontal rays).
    x: AxisCorners,
    /// Face coordinates on [`Axis::Y`].
    y: AxisCorners,
}

impl CornerIndex {
    /// Builds the tables from a plane's rectangle list in one sort pass
    /// per axis.
    pub(crate) fn build(rects: &[(Rect, ObstacleId)]) -> CornerIndex {
        CornerIndex {
            x: build_axis(rects, Axis::X),
            y: build_axis(rects, Axis::Y),
        }
    }

    /// Registers one rectangle (both faces on both axes). Degenerate
    /// rectangles anchor nothing and are skipped entirely.
    pub(crate) fn insert(&mut self, rect: &Rect, id: ObstacleId) {
        if rect.is_degenerate() {
            return;
        }
        let (xs, ys) = (rect.span(Axis::X), rect.span(Axis::Y));
        self.x.insert_face(xs.lo(), ys.lo(), ys.hi(), id);
        self.x.insert_face(xs.hi(), ys.lo(), ys.hi(), id);
        self.y.insert_face(ys.lo(), xs.lo(), xs.hi(), id);
        self.y.insert_face(ys.hi(), xs.lo(), xs.hi(), id);
    }

    /// Unregisters one rectangle (the inverse of [`CornerIndex::insert`]).
    pub(crate) fn remove(&mut self, rect: &Rect, id: ObstacleId) {
        if rect.is_degenerate() {
            return;
        }
        let (xs, ys) = (rect.span(Axis::X), rect.span(Axis::Y));
        self.x.remove_face(xs.lo(), ys.lo(), ys.hi(), id);
        self.x.remove_face(xs.hi(), ys.lo(), ys.hi(), id);
        self.y.remove_face(ys.lo(), xs.lo(), xs.hi(), id);
        self.y.remove_face(ys.hi(), xs.lo(), xs.hi(), id);
    }

    /// The tables of the axis a ray along `axis` travels.
    fn axis(&self, axis: Axis) -> &AxisCorners {
        match axis {
            Axis::X => &self.x,
            Axis::Y => &self.y,
        }
    }

    /// Fills `out` with the corner candidates along the clipped ray, in
    /// the canonical order and dedup of the flat plane's
    /// [`corner_candidates_into`](crate::Plane::corner_candidates_into):
    /// ascending distance from the origin, Positive before Negative on
    /// ties, minimum obstacle id per `(at, side)` — emitted directly,
    /// with no sort or dedup pass.
    pub(crate) fn candidates_into(
        &self,
        origin: Point,
        dir: Dir,
        stop: Coord,
        out: &mut Vec<CornerCandidate>,
    ) {
        out.clear();
        let axis = dir.axis();
        let w = origin.coord(axis.perpendicular());
        let ac = self.axis(axis);
        let mut emit = |i: usize| {
            let (at, col) = (ac.coords[i], &ac.columns[i]);
            if let Some(obstacle) = col.positive_at(w) {
                out.push(CornerCandidate {
                    at,
                    obstacle,
                    side: TurnSide::Positive,
                });
            }
            if let Some(obstacle) = col.negative_at(w) {
                out.push(CornerCandidate {
                    at,
                    obstacle,
                    side: TurnSide::Negative,
                });
            }
        };
        let range = ac.ahead(origin.coord(axis), stop, dir.sign() > 0);
        if dir.sign() > 0 {
            range.for_each(&mut emit);
        } else {
            range.rev().for_each(&mut emit);
        }
    }

    /// Appends the distinct `at` values of
    /// [`candidates_into`](CornerIndex::candidates_into) to `out`, in
    /// travel order, reading only `coords` and `reach`.
    pub(crate) fn stops_into(&self, origin: Point, dir: Dir, stop: Coord, out: &mut Vec<Coord>) {
        let axis = dir.axis();
        let w = origin.coord(axis.perpendicular());
        let ac = self.axis(axis);
        let range = ac.ahead(origin.coord(axis), stop, dir.sign() > 0);
        let slab = ac.coords[range.clone()].iter().zip(&ac.reach[range]);
        let anchored = |(&at, &(max_lo, min_hi)): (&Coord, &(Coord, Coord))| {
            (max_lo >= w || min_hi <= w).then_some(at)
        };
        if dir.sign() > 0 {
            out.extend(slab.filter_map(anchored));
        } else {
            out.extend(slab.rev().filter_map(anchored));
        }
    }
}

/// One-sort bulk construction of an axis's tables: gather every
/// non-degenerate face, sort by coordinate, and finish each column
/// locally.
fn build_axis(rects: &[(Rect, ObstacleId)], axis: Axis) -> AxisCorners {
    let perp = axis.perpendicular();
    let mut faces: Vec<(Coord, Coord, Coord, ObstacleId)> = Vec::with_capacity(rects.len() * 2);
    for (r, id) in rects {
        if r.is_degenerate() {
            continue;
        }
        let m = r.span(axis);
        let pv = r.span(perp);
        faces.push((m.lo(), pv.lo(), pv.hi(), *id));
        faces.push((m.hi(), pv.lo(), pv.hi(), *id));
    }
    faces.sort_unstable_by_key(|&(c, ..)| c);
    let mut ac = AxisCorners::default();
    let mut i = 0;
    while i < faces.len() {
        let c = faces[i].0;
        let mut col = Column::default();
        while i < faces.len() && faces[i].0 == c {
            let (_, lo, hi, id) = faces[i];
            col.pos.push((lo, id));
            col.neg.push((hi, id));
            i += 1;
        }
        col.pos.sort_unstable();
        col.neg.sort_unstable();
        col.recompute_mins();
        ac.coords.push(c);
        ac.reach.push(col.reach());
        ac.columns.push(col);
    }
    ac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Plane;

    /// Both table queries against the flat slab scan: the candidates
    /// bit for bit, and the coordinate-only stops as the distinct `at`s
    /// of the flat candidates — from the tables and from the flat
    /// plane's own `corner_stops_into` — for full and clipped stops.
    fn differential(plane: &Plane, index: &CornerIndex, what: &str) {
        let xs = plane.corner_coords(Axis::X);
        let ys = plane.corner_coords(Axis::Y);
        let mut buf = Vec::new();
        let mut stops = Vec::new();
        for &x in &xs {
            for &y in &ys {
                let p = Point::new(x, y);
                if !plane.point_free(p) {
                    continue;
                }
                for dir in Dir::ALL {
                    let hit = plane.ray_hit(p, dir);
                    let mid = (p.coord(dir.axis()) + hit.stop) / 2;
                    for stop in [hit.stop, mid] {
                        let want = plane.corner_candidates(p, dir, stop);
                        index.candidates_into(p, dir, stop, &mut buf);
                        assert_eq!(buf, want, "{what}: {p} {dir:?} @{stop}");
                        let mut ats: Vec<Coord> = want.iter().map(|c| c.at).collect();
                        ats.dedup();
                        stops.clear();
                        index.stops_into(p, dir, stop, &mut stops);
                        assert_eq!(stops, ats, "{what}: table stops {p} {dir:?} @{stop}");
                        stops.clear();
                        plane.corner_stops_into(p, dir, stop, &mut stops);
                        assert_eq!(stops, ats, "{what}: flat stops {p} {dir:?} @{stop}");
                    }
                }
            }
        }
    }

    fn seeded_rects(case: u64, n: usize) -> Vec<Rect> {
        // Cheap deterministic LCG: the geom crate has no rand dependency.
        let mut state = case.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |m: i64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as i64).rem_euclid(m)
        };
        (0..n)
            .map(|_| {
                let x = next(180);
                let y = next(180);
                let w = next(18) + 1;
                let h = next(18) + 1;
                Rect::new(x, y, x + w, y + h).unwrap()
            })
            .collect()
    }

    #[test]
    fn matches_flat_on_seeded_planes() {
        for case in 0..12u64 {
            let mut plane = Plane::new(Rect::new(0, 0, 200, 200).unwrap());
            for r in seeded_rects(case, 14) {
                plane.add_obstacle(r);
            }
            plane.build_index();
            let index = CornerIndex::build(plane.rects());
            differential(&plane, &index, &format!("case {case}"));
        }
    }

    #[test]
    fn incremental_maintenance_matches_rebuild() {
        let mut plane = Plane::new(Rect::new(0, 0, 200, 200).unwrap());
        plane.build_index();
        let mut index = CornerIndex::default();
        let rects = seeded_rects(3, 12);
        for (k, &r) in rects.iter().enumerate() {
            let id = plane.add_obstacle(r);
            index.insert(&r, id);
            differential(&plane, &index, &format!("after insert {k}"));
        }
        // Remove half of them (faces shared between rects must survive
        // partial removal), checking the differential at every step.
        for (k, &r) in rects.iter().enumerate().filter(|(k, _)| k % 2 == 0) {
            let id = plane.rects().iter().find(|(pr, _)| *pr == r).unwrap().1;
            plane.remove_obstacle(id);
            index.remove(&r, id);
            differential(&plane, &index, &format!("after remove {k}"));
        }
    }

    #[test]
    fn degenerate_rects_are_ignored() {
        let mut index = CornerIndex::default();
        index.insert(&Rect::new(10, 0, 10, 50).unwrap(), 0);
        index.insert(&Rect::new(0, 20, 50, 20).unwrap(), 1);
        let mut out = Vec::new();
        index.candidates_into(Point::new(0, 30), Dir::East, 100, &mut out);
        assert!(out.is_empty(), "degenerate faces anchor nothing");
        let mut stops = Vec::new();
        index.stops_into(Point::new(0, 30), Dir::East, 100, &mut stops);
        assert!(stops.is_empty(), "degenerate faces stop nothing");
        index.remove(&Rect::new(10, 0, 10, 50).unwrap(), 0);
    }

    #[test]
    fn shared_face_coordinate_keeps_minimum_id() {
        // Two rects share the face x=20 on the same side of the ray;
        // the flat dedup keeps the lower id — so must the tables.
        let mut plane = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        let a = plane.add_obstacle(Rect::new(20, 60, 40, 70).unwrap());
        let b = plane.add_obstacle(Rect::new(20, 80, 45, 90).unwrap());
        plane.build_index();
        let index = CornerIndex::build(plane.rects());
        let mut out = Vec::new();
        index.candidates_into(Point::new(0, 50), Dir::East, 100, &mut out);
        assert_eq!(
            out,
            plane.corner_candidates(Point::new(0, 50), Dir::East, 100)
        );
        assert_eq!(out[0].obstacle, a.min(b));
    }
}
