//! Bucketed corner tables: perpendicular-distance pruning for the corner
//! query ([`PlaneIndex::corner_candidates_into`](crate::PlaneIndex::corner_candidates_into)).
//!
//! The reference plane answers a corner query by scanning **every**
//! rectangle and sorting the faces that survive — cost proportional to
//! all obstacles, regardless of how far from the ray line they sit.
//! [`CornerIndex`] restructures the same faces so a query pays only for
//! the *distinct face coordinates* in the slab:
//!
//! * per ray axis, the distinct face coordinates are kept sorted
//!   (`coords`), each with a **column** holding the perpendicular extents
//!   of the rectangles owning a face there: their low edges (`los`) and
//!   their high edges (`his`), each sorted;
//! * parallel to `coords`, a compact `reach` array holds each column's
//!   `(max lo, min hi)`. A coordinate anchors a turn from the ray line
//!   `w` exactly when some rectangle lies wholly on the positive side
//!   (`max lo ≥ w`) or wholly on the negative side (`min hi ≤ w`), so
//!   [`CornerIndex::candidates_into`] reads two contiguous arrays and
//!   never touches a column.
//!
//! The columns exist only to keep `reach` exact when a face is removed:
//! the next-largest `lo` and next-smallest `hi` are the neighbours of the
//! removed values. Columns are visited in coordinate order, so the output
//! needs **no sort and no dedup**. Equality with the reference scan is
//! locked by the differential suites (`tests/plane_equivalence.rs`,
//! `crates/geom/tests/sharded.rs`).
//!
//! Degenerate rectangles never anchor a turn (see
//! [`anchors`](crate::plane::anchors)) and are excluded at insertion;
//! straddling rectangles are excluded per query by the `w` threshold
//! tests.

use crate::{Axis, Coord, Dir, ObstacleId, Point, Rect};

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

/// The perpendicular extents of the rectangles owning a face at one
/// coordinate (one entry per face, so equal extents repeat).
#[derive(Debug, Clone, Default)]
struct Column {
    /// Low perpendicular edges, ascending.
    los: Vec<Coord>,
    /// High perpendicular edges, ascending.
    his: Vec<Coord>,
}

impl Column {
    /// `(max lo, min hi)` of a non-empty column: a ray line at `w` finds
    /// a rectangle wholly on the positive side iff `max lo ≥ w`, and one
    /// wholly on the negative side iff `min hi ≤ w` (non-degeneracy makes
    /// `lo ≥ w` imply `hi > w`, and `hi ≤ w` imply `lo < w`).
    fn reach(&self) -> (Coord, Coord) {
        (self.los[self.los.len() - 1], self.his[0])
    }
}

impl AxisCorners {
    /// Inserts one face: its perpendicular extent `lo..hi` goes into the
    /// column at `c` (created if absent).
    fn insert_face(&mut self, c: Coord, lo: Coord, hi: Coord) {
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
        col.los.insert(col.los.partition_point(|&v| v < lo), lo);
        col.his.insert(col.his.partition_point(|&v| v < hi), hi);
        self.reach[i] = col.reach();
    }

    /// Removes one face (the exact inverse of
    /// [`AxisCorners::insert_face`]); a drained column is dropped so
    /// queries never walk empty coordinates.
    fn remove_face(&mut self, c: Coord, lo: Coord, hi: Coord) {
        let Ok(i) = self.coords.binary_search(&c) else {
            debug_assert!(false, "face coordinate must be present");
            return;
        };
        let col = &mut self.columns[i];
        for (list, v) in [(&mut col.los, lo), (&mut col.his, hi)] {
            match list.binary_search(&v) {
                Ok(at) => {
                    list.remove(at);
                }
                Err(_) => debug_assert!(false, "face must exist"),
            }
        }
        if col.los.is_empty() {
            self.coords.remove(i);
            self.reach.remove(i);
            self.columns.remove(i);
        } else {
            self.reach[i] = col.reach();
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

/// The bucketed corner index of a plane: one [`AxisCorners`] per ray
/// axis, built in O(N log N) and maintained per mutation.
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
    pub(crate) fn insert(&mut self, rect: &Rect) {
        if rect.is_degenerate() {
            return;
        }
        let (xs, ys) = (rect.span(Axis::X), rect.span(Axis::Y));
        self.x.insert_face(xs.lo(), ys.lo(), ys.hi());
        self.x.insert_face(xs.hi(), ys.lo(), ys.hi());
        self.y.insert_face(ys.lo(), xs.lo(), xs.hi());
        self.y.insert_face(ys.hi(), xs.lo(), xs.hi());
    }

    /// Unregisters one rectangle (the inverse of [`CornerIndex::insert`]).
    pub(crate) fn remove(&mut self, rect: &Rect) {
        if rect.is_degenerate() {
            return;
        }
        let (xs, ys) = (rect.span(Axis::X), rect.span(Axis::Y));
        self.x.remove_face(xs.lo(), ys.lo(), ys.hi());
        self.x.remove_face(xs.hi(), ys.lo(), ys.hi());
        self.y.remove_face(ys.lo(), xs.lo(), xs.hi());
        self.y.remove_face(ys.hi(), xs.lo(), xs.hi());
    }

    /// The tables of the axis a ray along `axis` travels.
    fn axis(&self, axis: Axis) -> &AxisCorners {
        match axis {
            Axis::X => &self.x,
            Axis::Y => &self.y,
        }
    }

    /// Clears `out` and fills it with the anchoring corner coordinates
    /// along the clipped ray, distinct and in travel order, reading only
    /// `coords` and `reach`.
    pub(crate) fn candidates_into(
        &self,
        origin: Point,
        dir: Dir,
        stop: Coord,
        out: &mut Vec<Coord>,
    ) {
        out.clear();
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
    let mut faces: Vec<(Coord, Coord, Coord)> = Vec::with_capacity(rects.len() * 2);
    for (r, _) in rects {
        if r.is_degenerate() {
            continue;
        }
        let m = r.span(axis);
        let pv = r.span(perp);
        faces.push((m.lo(), pv.lo(), pv.hi()));
        faces.push((m.hi(), pv.lo(), pv.hi()));
    }
    faces.sort_unstable_by_key(|&(c, ..)| c);
    let mut ac = AxisCorners::default();
    for group in faces.chunk_by(|a, b| a.0 == b.0) {
        let mut col = Column {
            los: group.iter().map(|&(_, lo, _)| lo).collect(),
            his: group.iter().map(|&(.., hi)| hi).collect(),
        };
        col.los.sort_unstable();
        col.his.sort_unstable();
        ac.coords.push(group[0].0);
        ac.reach.push(col.reach());
        ac.columns.push(col);
    }
    ac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Plane;

    /// The table query against the reference plane's linear scan, for full and
    /// clipped stops, into a buffer left dirty by the previous query.
    fn differential(plane: &Plane, index: &CornerIndex, what: &str) {
        let xs = plane.corner_coords(Axis::X);
        let ys = plane.corner_coords(Axis::Y);
        let (mut want, mut got) = (Vec::new(), vec![Coord::MIN]);
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
                        plane.corner_candidates_into(p, dir, stop, &mut want);
                        index.candidates_into(p, dir, stop, &mut got);
                        assert_eq!(got, want, "{what}: {p} {dir:?} @{stop}");
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
            let index = CornerIndex::build(plane.rects());
            differential(&plane, &index, &format!("case {case}"));
        }
    }

    #[test]
    fn incremental_maintenance_matches_rebuild() {
        let mut plane = Plane::new(Rect::new(0, 0, 200, 200).unwrap());
        let mut index = CornerIndex::default();
        let rects = seeded_rects(3, 12);
        for (k, &r) in rects.iter().enumerate() {
            plane.add_obstacle(r);
            index.insert(&r);
            differential(&plane, &index, &format!("after insert {k}"));
        }
        // Move half of them the way a session translates a cell (faces
        // shared between rects must survive the removal of the old
        // faces), checking the differential at every step.
        for (k, &r) in rects.iter().enumerate().filter(|(k, _)| k % 2 == 0) {
            assert!(plane.translate_obstacle(k, 5, -3));
            index.remove(&r);
            index.insert(&r.translate(5, -3));
            differential(&plane, &index, &format!("after move {k}"));
        }
        let rebuilt = CornerIndex::build(plane.rects());
        differential(&plane, &rebuilt, "rebuilt");
    }

    #[test]
    fn degenerate_rects_are_ignored() {
        let mut index = CornerIndex::default();
        index.insert(&Rect::new(10, 0, 10, 50).unwrap());
        index.insert(&Rect::new(0, 20, 50, 20).unwrap());
        let mut out = Vec::new();
        index.candidates_into(Point::new(0, 30), Dir::East, 100, &mut out);
        assert!(out.is_empty(), "degenerate faces anchor nothing");
        index.remove(&Rect::new(10, 0, 10, 50).unwrap());
    }

    #[test]
    fn removing_a_face_restores_the_reach_it_set() {
        // Two rects share the face x=20: one spans y 55..70, the other
        // y 60..80. From the ray line y=57 the first straddles and the
        // second lies above, so x=20 anchors. Removing the second must
        // bring the column's reach back to the first's extent alone.
        let (low, high) = (
            Rect::new(20, 55, 40, 70).unwrap(),
            Rect::new(20, 60, 30, 80).unwrap(),
        );
        let mut index = CornerIndex::default();
        index.insert(&low);
        index.insert(&high);
        let mut out = Vec::new();
        index.candidates_into(Point::new(0, 57), Dir::East, 100, &mut out);
        assert_eq!(out, [20, 30], "the upper rect anchors both its faces");
        index.remove(&high);
        index.candidates_into(Point::new(0, 57), Dir::East, 100, &mut out);
        assert!(out.is_empty(), "the lower rect straddles y=57: {out:?}");
        index.candidates_into(Point::new(0, 50), Dir::East, 100, &mut out);
        assert_eq!(out, [20, 40]);
    }
}
