//! Rectilinear (orthogonal) polygons and their rectangle decomposition.
//!
//! The paper lists orthogonal-polygon cell boundaries as a desirable
//! extension ("the procedure which generates successors must be modified so
//! that it leaves no stone unturned"). We support them by decomposing each
//! polygon into axis-aligned rectangles that share one obstacle identity;
//! the ray tracer then handles L-, T- and U-shaped cells with no changes.

use std::fmt;

use crate::{Coord, GeomError, Point, Rect, Segment};

/// A simple rectilinear polygon given by its boundary vertices.
///
/// The boundary must alternate horizontal and vertical edges and must not
/// self-intersect. Vertices may be listed clockwise or counter-clockwise;
/// the closing edge from the last vertex back to the first is implicit.
///
/// ```
/// use gcr_geom::{Point, RectilinearPolygon};
/// // An L-shape.
/// let poly = RectilinearPolygon::new(vec![
///     Point::new(0, 0),
///     Point::new(20, 0),
///     Point::new(20, 10),
///     Point::new(10, 10),
///     Point::new(10, 20),
///     Point::new(0, 20),
/// ]).unwrap();
/// assert_eq!(poly.area(), 300);
/// assert_eq!(poly.decompose().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RectilinearPolygon {
    vertices: Vec<Point>,
}

impl RectilinearPolygon {
    /// Creates a rectilinear polygon from its boundary vertices.
    ///
    /// Collinear runs are merged automatically.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidPolygon`] if fewer than 4 effective
    /// vertices remain, if any edge is diagonal or zero-length, if edges do
    /// not alternate axes, or if the boundary self-intersects.
    pub fn new(vertices: Vec<Point>) -> Result<RectilinearPolygon, GeomError> {
        let vertices = merge_collinear(vertices)?;
        if vertices.len() < 4 {
            return Err(GeomError::InvalidPolygon {
                reason: "fewer than 4 vertices",
            });
        }
        let n = vertices.len();
        // Edges must alternate horizontal/vertical; with the closing edge the
        // count must therefore be even.
        if n % 2 != 0 {
            return Err(GeomError::InvalidPolygon {
                reason: "odd vertex count cannot alternate axes",
            });
        }
        let mut edges = Vec::with_capacity(n);
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            let seg = Segment::new(a, b).map_err(|_| GeomError::InvalidPolygon {
                reason: "diagonal edge",
            })?;
            if seg.is_degenerate() {
                return Err(GeomError::InvalidPolygon {
                    reason: "zero-length edge",
                });
            }
            edges.push(seg);
        }
        for i in 0..n {
            let next = (i + 1) % n;
            if edges[i].axis() == edges[next].axis() {
                return Err(GeomError::InvalidPolygon {
                    reason: "consecutive edges on the same axis",
                });
            }
        }
        // Non-adjacent edges must not touch (simple polygon check, O(n^2):
        // cell outlines are small, typically < 20 vertices).
        for i in 0..n {
            for j in (i + 1)..n {
                let adjacent = j == i + 1 || (i == 0 && j == n - 1);
                if adjacent {
                    continue;
                }
                let crosses = edges[i].crossing(&edges[j]).is_some()
                    || edges[i].collinear_overlap(&edges[j]).is_some();
                if crosses {
                    return Err(GeomError::InvalidPolygon {
                        reason: "boundary self-intersects",
                    });
                }
            }
        }
        Ok(RectilinearPolygon { vertices })
    }

    /// The (merged) boundary vertices.
    #[inline]
    #[must_use]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// The boundary edges, including the closing edge.
    #[must_use]
    pub fn edges(&self) -> Vec<Segment> {
        let n = self.vertices.len();
        (0..n)
            .map(|i| {
                Segment::new(self.vertices[i], self.vertices[(i + 1) % n])
                    .expect("validated on construction")
            })
            .collect()
    }

    /// The bounding rectangle of the polygon.
    #[must_use]
    pub fn bounding_rect(&self) -> Rect {
        Rect::bounding(self.vertices.iter().copied()).expect("polygon has vertices")
    }

    /// The polygon shifted by `(dx, dy)`. Translation preserves vertex
    /// order and orthogonality, so the result is always valid.
    #[must_use]
    pub fn translate(&self, dx: Coord, dy: Coord) -> RectilinearPolygon {
        RectilinearPolygon {
            vertices: self
                .vertices
                .iter()
                .map(|p| Point::new(p.x + dx, p.y + dy))
                .collect(),
        }
    }

    /// The enclosed area (shoelace formula, exact).
    #[must_use]
    pub fn area(&self) -> i128 {
        let n = self.vertices.len();
        let mut twice: i128 = 0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            twice += a.x as i128 * b.y as i128 - b.x as i128 * a.y as i128;
        }
        twice.abs() / 2
    }

    /// Decomposes the polygon into non-overlapping rectangles that exactly
    /// cover it, using vertical slab decomposition.
    ///
    /// The slabs are bounded by the distinct x-coordinates of the vertices;
    /// within each slab the covered y-ranges are found by pairing the
    /// horizontal edges that span the slab (even–odd rule).
    #[must_use]
    pub fn decompose(&self) -> Vec<Rect> {
        let mut xs: Vec<Coord> = self.vertices.iter().map(|p| p.x).collect();
        xs.sort_unstable();
        xs.dedup();
        let horizontals: Vec<Segment> = self
            .edges()
            .into_iter()
            .filter(|e| e.axis() == crate::Axis::X)
            .collect();
        let mut rects = Vec::new();
        for w in xs.windows(2) {
            let (x0, x1) = (w[0], w[1]);
            let mut ys: Vec<Coord> = horizontals
                .iter()
                .filter(|e| e.a().x <= x0 && e.b().x >= x1)
                .map(|e| e.cross())
                .collect();
            ys.sort_unstable();
            debug_assert!(ys.len().is_multiple_of(2), "edge parity broken in slab");
            for pair in ys.chunks(2) {
                if let [y0, y1] = *pair {
                    rects.push(Rect::new(x0, y0, x1, y1).expect("slab bounds are ordered"));
                }
            }
        }
        // Merge horizontally adjacent rectangles with identical y-extents to
        // keep the obstacle count low.
        merge_adjacent(rects)
    }

    /// Decomposes the polygon into a **covering** set of rectangles whose
    /// union is the polygon and whose members overlap across the internal
    /// slab seams: both the vertical-slab and the horizontal-slab
    /// decompositions are returned together.
    ///
    /// This is the set an obstacle plane must use. A pure partition (as
    /// from [`RectilinearPolygon::decompose`]) leaves zero-width seams
    /// between adjacent pieces, and a seam line is not strictly inside
    /// either piece — a wire could legally run *through the cell* along
    /// it. Every seam of one slab direction lies strictly inside a
    /// rectangle of the other, so the combined set blocks the whole
    /// interior; the points where both decompositions have boundaries are
    /// exactly the polygon's own vertices, which wires may legitimately
    /// touch.
    #[must_use]
    pub fn decompose_overlapping(&self) -> Vec<Rect> {
        let mut rects = self.decompose();
        let transposed = RectilinearPolygon {
            vertices: self.vertices.iter().map(|p| Point::new(p.y, p.x)).collect(),
        };
        for r in transposed.decompose() {
            let back = Rect::new(r.ymin(), r.xmin(), r.ymax(), r.xmax())
                .expect("transposition preserves ordering");
            if !rects.contains(&back) {
                rects.push(back);
            }
        }
        rects
    }
}

impl fmt::Display for RectilinearPolygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "polygon[")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Removes consecutive duplicate and collinear vertices (including across
/// the wrap-around).
fn merge_collinear(vertices: Vec<Point>) -> Result<Vec<Point>, GeomError> {
    if vertices.len() < 3 {
        return Err(GeomError::InvalidPolygon {
            reason: "fewer than 3 vertices",
        });
    }
    let mut out: Vec<Point> = Vec::with_capacity(vertices.len());
    for v in vertices {
        if out.last() == Some(&v) {
            continue;
        }
        out.push(v);
    }
    // Drop a duplicated closing vertex if the caller included it.
    if out.len() > 1 && out.first() == out.last() {
        out.pop();
    }
    // Iterate collinear merging until stable (wrap-around can cascade).
    loop {
        let n = out.len();
        if n < 3 {
            return Err(GeomError::InvalidPolygon {
                reason: "degenerate after merging",
            });
        }
        let mut removed = false;
        let mut i = 0;
        while i < out.len() && out.len() >= 3 {
            let n = out.len();
            let prev = out[(i + n - 1) % n];
            let cur = out[i];
            let next = out[(i + 1) % n];
            let d1 = prev.dir_toward(cur);
            let d2 = cur.dir_toward(next);
            let collinear = match (d1, d2) {
                (Some(a), Some(b)) => a.axis() == b.axis(),
                _ => false,
            };
            if collinear {
                out.remove(i);
                removed = true;
            } else {
                i += 1;
            }
        }
        if !removed {
            break;
        }
    }
    Ok(out)
}

/// Merges rectangles that share a full vertical edge and identical
/// y-extents.
fn merge_adjacent(mut rects: Vec<Rect>) -> Vec<Rect> {
    rects.sort_by_key(|r| (r.ymin(), r.ymax(), r.xmin()));
    let mut out: Vec<Rect> = Vec::with_capacity(rects.len());
    for r in rects {
        if let Some(last) = out.last_mut() {
            if last.ymin() == r.ymin() && last.ymax() == r.ymax() && last.xmax() == r.xmin() {
                *last = Rect::new(last.xmin(), last.ymin(), r.xmax(), r.ymax())
                    .expect("merged extents are ordered");
                continue;
            }
        }
        out.push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> RectilinearPolygon {
        RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(20, 0),
            Point::new(20, 10),
            Point::new(10, 10),
            Point::new(10, 20),
            Point::new(0, 20),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_degenerate_polygons() {
        assert!(RectilinearPolygon::new(vec![Point::new(0, 0), Point::new(1, 0)]).is_err());
        // Diagonal edge.
        assert!(RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(5, 5),
            Point::new(5, 0),
            Point::new(0, 0),
        ])
        .is_err());
    }

    #[test]
    fn rejects_self_intersection() {
        // A bow-tie-like rectilinear loop.
        let result = RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(10, 0),
            Point::new(10, 10),
            Point::new(-5, 10),
            Point::new(-5, 5),
            Point::new(5, 5),
            Point::new(5, 15),
            Point::new(0, 15),
        ]);
        assert!(result.is_err());
    }

    #[test]
    fn rect_roundtrip() {
        let r = Rect::new(1, 2, 7, 9).unwrap();
        let poly = RectilinearPolygon::new(r.corners().to_vec()).unwrap();
        assert_eq!(poly.area(), r.area());
        assert_eq!(poly.decompose(), vec![r]);
        assert_eq!(poly.bounding_rect(), r);
    }

    #[test]
    fn l_shape_properties() {
        let poly = l_shape();
        assert_eq!(poly.vertices().len(), 6);
        assert_eq!(poly.area(), 300);
        assert_eq!(poly.bounding_rect(), Rect::new(0, 0, 20, 20).unwrap());
    }

    #[test]
    fn l_shape_decomposition_covers_area() {
        let poly = l_shape();
        let rects = poly.decompose();
        let total: i128 = rects.iter().map(Rect::area).sum();
        assert_eq!(total, poly.area());
        for (i, a) in rects.iter().enumerate() {
            for b in rects.iter().skip(i + 1) {
                assert!(!a.overlaps_open(b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn collinear_vertices_are_merged() {
        let poly = RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(5, 0),
            Point::new(10, 0), // collinear with previous two
            Point::new(10, 10),
            Point::new(0, 10),
        ])
        .unwrap();
        assert_eq!(poly.vertices().len(), 4);
        assert_eq!(poly.area(), 100);
    }

    #[test]
    fn closing_duplicate_vertex_is_dropped() {
        let poly = RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(10, 0),
            Point::new(10, 10),
            Point::new(0, 10),
            Point::new(0, 0),
        ])
        .unwrap();
        assert_eq!(poly.vertices().len(), 4);
    }

    #[test]
    fn u_shape_decomposes_into_three() {
        let poly = RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(30, 0),
            Point::new(30, 20),
            Point::new(20, 20),
            Point::new(20, 5),
            Point::new(10, 5),
            Point::new(10, 20),
            Point::new(0, 20),
        ])
        .unwrap();
        let rects = poly.decompose();
        let total: i128 = rects.iter().map(Rect::area).sum();
        assert_eq!(total, poly.area());
        assert_eq!(rects.len(), 3);
    }

    #[test]
    fn clockwise_and_counterclockwise_agree() {
        let ccw = l_shape();
        let mut vs = ccw.vertices().to_vec();
        vs.reverse();
        let cw = RectilinearPolygon::new(vs).unwrap();
        assert_eq!(cw.area(), ccw.area());
        let a: i128 = cw.decompose().iter().map(Rect::area).sum();
        assert_eq!(a, ccw.area());
    }

    #[test]
    fn edges_alternate_axes() {
        let poly = l_shape();
        let edges = poly.edges();
        for w in edges.windows(2) {
            assert_ne!(w[0].axis(), w[1].axis());
        }
        assert_eq!(edges.len(), 6);
    }

    #[test]
    fn display_mentions_polygon() {
        assert!(l_shape().to_string().starts_with("polygon["));
    }
}
