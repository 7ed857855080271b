//! Property-based tests for the geometry kernel (seeded sweeps; the
//! environment has no proptest, so cases are drawn from the workspace's
//! deterministic RNG instead).

use gcr_geom::{
    Axis, Coord, Dir, Interval, Plane, PlaneIndex, Point, Polyline, Rect, RectilinearPolygon,
    Segment, ShardedPlane,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RANGE: i64 = 1_000;
const CASES: usize = 128;

fn point(rng: &mut StdRng) -> Point {
    Point::new(rng.gen_range(-RANGE..RANGE), rng.gen_range(-RANGE..RANGE))
}

fn rect(rng: &mut StdRng) -> Rect {
    Rect::from_corners(point(rng), point(rng)).expect("coords in range")
}

fn interval(rng: &mut StdRng) -> Interval {
    Interval::spanning(rng.gen_range(-RANGE..RANGE), rng.gen_range(-RANGE..RANGE))
        .expect("coords in range")
}

fn obstacle_plane(rng: &mut StdRng, max_blocks: usize) -> Plane {
    let bounds = Rect::new(-RANGE, -RANGE, RANGE, RANGE).unwrap();
    let mut plane = Plane::new(bounds);
    let n = rng.gen_range(0..=max_blocks);
    for _ in 0..n {
        plane.add_obstacle(rect(rng));
    }
    plane
}

#[test]
fn manhattan_is_symmetric_and_triangle() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..CASES {
        let (a, b, c) = (point(&mut rng), point(&mut rng), point(&mut rng));
        assert_eq!(a.manhattan(b), b.manhattan(a));
        assert!(a.manhattan(c) <= a.manhattan(b) + b.manhattan(c));
        assert_eq!(a.manhattan(a), 0);
    }
}

#[test]
fn step_distance_matches_manhattan() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..CASES {
        let p = point(&mut rng);
        let d = rng.gen_range(0i64..500);
        for dir in Dir::ALL {
            assert_eq!(p.manhattan(p.step(dir, d)), d);
        }
    }
}

#[test]
fn interval_intersect_is_commutative_and_contained() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..CASES {
        let (a, b) = (interval(&mut rng), interval(&mut rng));
        assert_eq!(a.intersect(&b), b.intersect(&a));
        if let Some(i) = a.intersect(&b) {
            assert!(a.contains_interval(&i));
            assert!(b.contains_interval(&i));
            assert!(a.touches(&b));
        } else {
            assert!(!a.touches(&b));
            assert!(a.gap_to(&b) > 0);
        }
    }
}

#[test]
fn interval_hull_contains_both() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..CASES {
        let (a, b) = (interval(&mut rng), interval(&mut rng));
        let h = a.hull(&b);
        assert!(h.contains_interval(&a));
        assert!(h.contains_interval(&b));
        assert!(h.len() <= a.len() + b.len() + a.gap_to(&b));
    }
}

#[test]
fn rect_intersection_inside_hull() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..CASES {
        let (a, b) = (rect(&mut rng), rect(&mut rng));
        let h = a.hull(&b);
        assert!(h.contains_rect(&a) && h.contains_rect(&b));
        if let Some(i) = a.intersect(&b) {
            assert!(a.contains_rect(&i) && b.contains_rect(&i));
        }
    }
}

#[test]
fn rect_closest_point_is_inside_and_achieves_distance() {
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..CASES {
        let (r, p) = (rect(&mut rng), point(&mut rng));
        let q = r.closest_point_to(p);
        assert!(r.contains(q));
        assert_eq!(p.manhattan(q), r.manhattan_to_point(p));
        // No corner is closer than the reported distance.
        for c in r.corners() {
            assert!(p.manhattan(c) >= r.manhattan_to_point(p));
        }
    }
}

#[test]
fn segment_closest_point_lies_on_segment() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..CASES {
        let (p, a) = (point(&mut rng), point(&mut rng));
        let dx = rng.gen_range(0i64..500);
        let seg = Segment::horizontal(a.y, a.x, a.x + dx);
        let q = seg.closest_point_to(p);
        assert!(seg.contains(q));
        assert_eq!(p.manhattan(q), seg.manhattan_to_point(p));
    }
}

#[test]
fn polyline_simplify_preserves_length_and_endpoints() {
    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..CASES {
        let origin = point(&mut rng);
        let mut pts = vec![origin];
        for _ in 0..rng.gen_range(1usize..12) {
            let dir = Dir::ALL[rng.gen_range(0usize..4)];
            let len = rng.gen_range(1i64..20);
            let last = *pts.last().unwrap();
            let next = last.step(dir, len);
            if next != last {
                pts.push(next);
            }
        }
        if pts.len() < 2 {
            continue;
        }
        if let Ok(p) = Polyline::new(pts) {
            let s = p.simplified();
            assert_eq!(s.length(), p.length());
            assert_eq!(s.start(), p.start());
            assert_eq!(s.end(), p.end());
            assert!(s.points().len() <= p.points().len());
            // Simplifying twice is idempotent.
            assert_eq!(s.simplified(), s.clone());
        }
    }
}

#[test]
fn ray_hit_stop_is_free_and_maximal() {
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..CASES {
        let plane = obstacle_plane(&mut rng, 8);
        let origin = point(&mut rng);
        if !plane.point_free(origin) {
            continue;
        }
        for dir in Dir::ALL {
            let hit = plane.ray_hit(origin, dir);
            let stop_point = origin.with_coord(dir.axis(), hit.stop);
            // The entire travelled segment is legal wire.
            assert!(
                plane.segment_free(origin, stop_point),
                "ray {dir} from {origin} claims free travel to {stop_point}"
            );
            // One more unit would be illegal (obstacle interior or bounds).
            let beyond = stop_point.step(dir, 1);
            assert!(
                !plane.segment_free(origin, beyond),
                "ray {dir} from {origin} stopped early at {stop_point}"
            );
        }
    }
}

#[test]
fn corner_candidates_are_within_ray_extent() {
    let mut rng = StdRng::seed_from_u64(10);
    let mut cands = Vec::new();
    for _ in 0..CASES {
        let plane = obstacle_plane(&mut rng, 8);
        let origin = point(&mut rng);
        if !plane.point_free(origin) {
            continue;
        }
        for dir in Dir::ALL {
            let hit = plane.ray_hit(origin, dir);
            let u0 = origin.coord(dir.axis());
            plane.corner_candidates_into(origin, dir, hit.stop, &mut cands);
            let mut last_distance = 0;
            for &at in &cands {
                let d = (at - u0).abs();
                assert!(d > last_distance, "candidates not distinct in travel order");
                assert!(d <= hit.distance, "candidate beyond the hit point");
                last_distance = d;
                // The candidate point lies on legal wire.
                let cp = origin.with_coord(dir.axis(), at);
                assert!(plane.point_free(cp));
            }
        }
    }
}

/// Brute-force reference for the corner query: the distinct face
/// coordinates in the ray's range — `(u0, stop]` ahead of the origin — of
/// the non-degenerate obstacles lying wholly on one side of the ray line
/// (touching it at most), nearest first.
fn brute_corners(plane: &Plane, origin: Point, dir: Dir, stop: Coord) -> Vec<Coord> {
    let axis = dir.axis();
    let (u0, w) = (origin.coord(axis), origin.coord(axis.perpendicular()));
    let travel = |c: Coord| (c - u0) * dir.sign();
    let mut out: Vec<Coord> = Vec::new();
    for (r, _) in plane.rects() {
        let pv = r.span(axis.perpendicular());
        if r.is_degenerate() || !(pv.lo() >= w || pv.hi() <= w) {
            continue;
        }
        let m = r.span(axis);
        for c in [m.lo(), m.hi()] {
            if travel(c) > 0 && travel(c) <= travel(stop) {
                out.push(c);
            }
        }
    }
    out.sort_by_key(|&c| travel(c));
    out.dedup();
    out
}

/// Every plane — flat unindexed, flat indexed and sharded — lists exactly
/// the brute-force corner coordinates, for the full ray and a clipped
/// stop, into a buffer holding the previous answer, and all three agree
/// on the ray itself.
#[test]
fn corner_candidates_match_the_brute_force_oracle() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut out = Vec::new();
    let mut compared = 0usize;
    for _ in 0..CASES {
        let linear = obstacle_plane(&mut rng, 10);
        let mut indexed = linear.clone();
        indexed.build_index();
        let sharded = ShardedPlane::new(linear.clone());
        let planes: [&dyn PlaneIndex; 3] = [&linear, &indexed, &sharded];
        let origin = point(&mut rng);
        if !linear.point_free(origin) {
            continue;
        }
        for dir in Dir::ALL {
            let hit = linear.ray_hit(origin, dir);
            let mid = (origin.coord(dir.axis()) + hit.stop) / 2;
            for stop in [hit.stop, mid] {
                let want = brute_corners(&linear, origin, dir, stop);
                for plane in planes {
                    assert_eq!(plane.ray_hit(origin, dir), hit, "{plane:?} ray {dir}");
                    plane.corner_candidates_into(origin, dir, stop, &mut out);
                    assert_eq!(out, want, "{plane:?} corners {dir} from {origin} @{stop}");
                }
                compared += want.len();
            }
        }
    }
    assert!(compared > 100, "the sweep must compare real corner lists");
}

#[test]
fn segment_free_agrees_with_unit_walk() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..CASES {
        let plane = obstacle_plane(&mut rng, 6);
        let origin = point(&mut rng);
        let len = rng.gen_range(0i64..60);
        for dir in Dir::ALL {
            let target = origin.step(dir, len);
            let free = plane.segment_free(origin, target);
            // Check the interval-based predicate against a brute-force
            // scan of obstacle slabs.
            let brute = brute_segment_free(&plane, origin, target);
            assert_eq!(free, brute, "disagree for {origin} -> {target}");
        }
    }
}

/// The topological index must answer every query identically to the
/// linear scan — ray hits, corner coordinates and segment checks.
#[test]
fn indexed_plane_agrees_with_linear_scan() {
    let mut rng = StdRng::seed_from_u64(12);
    let (mut ca, mut cb) = (Vec::new(), Vec::new());
    for _ in 0..CASES {
        let naive = obstacle_plane(&mut rng, 10);
        let origin = point(&mut rng);
        let target = point(&mut rng);
        let mut indexed = naive.clone();
        indexed.build_index();
        assert!(indexed.has_index() && !naive.has_index());

        if naive.point_free(origin) {
            for dir in Dir::ALL {
                let a = naive.ray_hit(origin, dir);
                let b = indexed.ray_hit(origin, dir);
                assert_eq!(a, b, "ray {dir} from {origin}");
                naive.corner_candidates_into(origin, dir, a.stop, &mut ca);
                indexed.corner_candidates_into(origin, dir, b.stop, &mut cb);
                assert_eq!(&ca, &cb, "candidates {dir} from {origin}");
                // A shorter stop must agree too.
                let mid = (origin.coord(dir.axis()) + a.stop) / 2;
                naive.corner_candidates_into(origin, dir, mid, &mut ca);
                indexed.corner_candidates_into(origin, dir, mid, &mut cb);
                assert_eq!(&ca, &cb, "clipped candidates {dir} from {origin}");
            }
        }
        // segment_free agrees regardless of endpoint legality.
        let aligned = Point::new(target.x, origin.y);
        assert_eq!(
            naive.segment_free(origin, aligned),
            indexed.segment_free(origin, aligned)
        );
        let aligned = Point::new(origin.x, target.y);
        assert_eq!(
            naive.segment_free(origin, aligned),
            indexed.segment_free(origin, aligned)
        );
        assert_eq!(naive.point_free(target), indexed.point_free(target));
    }
}

/// Brute-force reference for `segment_free`: samples every integer point
/// and every half-open unit interval on the segment against all obstacles.
fn brute_segment_free(plane: &Plane, a: Point, b: Point) -> bool {
    let bounds = plane.bounds();
    if !bounds.contains(a) || !bounds.contains(b) {
        return false;
    }
    let axis = if a.y == b.y { Axis::X } else { Axis::Y };
    let lo = a.coord(axis).min(b.coord(axis));
    let hi = a.coord(axis).max(b.coord(axis));
    let w = a.coord(axis.perpendicular());
    for (r, _) in plane.rects() {
        if r.is_degenerate() {
            continue;
        }
        if !r.span(axis.perpendicular()).contains_open(w) {
            continue;
        }
        // Does the open span (r.lo, r.hi) on the moving axis intersect [lo, hi]?
        let rs = r.span(axis);
        if rs.lo() < hi && lo < rs.hi() {
            return false;
        }
    }
    true
}

#[test]
fn polygon_decomposition_preserves_area_for_staircases() {
    // Staircase polygons with k steps.
    for k in 1..6 {
        let mut vs = vec![Point::new(0, 0)];
        let step = 10;
        for i in 0..k {
            let x0 = i as i64 * step;
            let x1 = (i + 1) as i64 * step;
            let y1 = (i + 1) as i64 * step;
            vs.push(Point::new(x1, vs.last().unwrap().y));
            vs.push(Point::new(x1, y1));
            let _ = x0;
        }
        // Close along the top-left.
        let top = vs.last().unwrap().y;
        vs.push(Point::new(0, top));
        let poly = RectilinearPolygon::new(vs).unwrap();
        let total: i128 = poly.decompose().iter().map(Rect::area).sum();
        assert_eq!(total, poly.area(), "staircase with {k} steps");
    }
}
