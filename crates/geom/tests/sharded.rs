//! Differential and mutation tests for [`ShardedPlane`] (seeded sweeps;
//! the environment has no proptest, so cases are drawn from a
//! deterministic RNG instead).
//!
//! The contract under test: for any obstacle set, any shard size and any
//! query, the sharded plane answers **bit-identically** to the flat
//! plane — including immediately after mutations.

use gcr_geom::{Coord, Dir, Plane, PlaneIndex, Point, Rect, ShardedPlane};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RANGE: i64 = 400;

fn rect(rng: &mut StdRng) -> Rect {
    let x0 = rng.gen_range(0..RANGE);
    let y0 = rng.gen_range(0..RANGE);
    let w = rng.gen_range(0..RANGE / 4);
    let h = rng.gen_range(0..RANGE / 4);
    Rect::new(x0, y0, (x0 + w).min(RANGE), (y0 + h).min(RANGE)).unwrap()
}

fn random_plane(rng: &mut StdRng, blocks: usize) -> Plane {
    let mut plane = Plane::new(Rect::new(0, 0, RANGE, RANGE).unwrap());
    for _ in 0..blocks {
        plane.add_obstacle(rect(rng));
    }
    plane
}

fn probe(rng: &mut StdRng) -> Point {
    Point::new(rng.gen_range(0..=RANGE), rng.gen_range(0..=RANGE))
}

/// The corner query into a buffer that holds stale contents.
fn corners(plane: &dyn PlaneIndex, p: Point, dir: Dir, stop: Coord) -> Vec<Coord> {
    let mut out = vec![Coord::MIN];
    plane.corner_candidates_into(p, dir, stop, &mut out);
    out
}

/// Flat vs sharded on random planes, random probes, both the un-indexed
/// and topologically indexed flat variants, and shard sizes from
/// degenerate (1: every coordinate its own bucket column) to coarse
/// (larger than the plane: a single bucket, the flat scan in disguise).
#[test]
fn random_queries_agree_with_flat_for_all_shard_sizes() {
    for case in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x5A_DED + case);
        let mut flat = random_plane(&mut rng, (case % 12) as usize);
        if case % 2 == 0 {
            flat.build_index();
        }
        for shard in [1, 7, 64, 1000] {
            let sharded = ShardedPlane::with_shard_size(flat.clone(), shard);
            for _ in 0..40 {
                let p = probe(&mut rng);
                assert_eq!(
                    PlaneIndex::point_free(&flat, p),
                    sharded.point_free(p),
                    "case {case} shard {shard}: point {p}"
                );
                assert_eq!(
                    PlaneIndex::obstacle_at(&flat, p),
                    sharded.obstacle_at(p),
                    "case {case} shard {shard}: obstacle {p}"
                );
                let q = probe(&mut rng);
                let (h, v) = (Point::new(q.x, p.y), Point::new(p.x, q.y));
                for b in [h, v] {
                    assert_eq!(
                        PlaneIndex::segment_free(&flat, p, b),
                        sharded.segment_free(p, b),
                        "case {case} shard {shard}: segment {p}-{b}"
                    );
                }
                if PlaneIndex::point_free(&flat, p) {
                    for dir in Dir::ALL {
                        let hit = PlaneIndex::ray_hit(&flat, p, dir);
                        assert_eq!(
                            hit,
                            sharded.ray_hit(p, dir),
                            "case {case} shard {shard}: ray {p} {dir:?}"
                        );
                        let mid = (p.coord(dir.axis()) + hit.stop) / 2;
                        for stop in [hit.stop, mid] {
                            assert_eq!(
                                corners(&flat, p, dir, stop),
                                corners(&sharded, p, dir, stop),
                                "case {case} shard {shard}: corners {p} {dir:?} @{stop}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// After every insert, a connection query must match the same query
/// against a fresh plane holding the same rectangles — no pre-insert
/// answer may survive the mutation.
#[test]
fn queries_after_each_insert_match_a_fresh_plane() {
    let mut rng = StdRng::seed_from_u64(77);
    let mut sharded =
        ShardedPlane::with_shard_size(Plane::new(Rect::new(0, 0, RANGE, RANGE).unwrap()), 32);
    let probes: Vec<Point> = (0..24).map(|_| probe(&mut rng)).collect();
    for step in 0..10 {
        // Ask every legal probe before mutating.
        for &p in &probes {
            if sharded.point_free(p) {
                for dir in Dir::ALL {
                    sharded.ray_hit(p, dir);
                }
            }
            let q = Point::new((p.x + 31).min(RANGE), p.y);
            sharded.segment_free(p, q);
        }
        sharded.add_obstacle(rect(&mut rng));
        // Cold reference: a fresh flat plane with the identical rects.
        let mut cold = Plane::new(Rect::new(0, 0, RANGE, RANGE).unwrap());
        for (r, _) in sharded.rects() {
            cold.add_obstacle(*r);
        }
        for &p in &probes {
            assert_eq!(
                PlaneIndex::point_free(&cold, p),
                sharded.point_free(p),
                "step {step}: point {p}"
            );
            let q = Point::new((p.x + 31).min(RANGE), p.y);
            assert_eq!(
                PlaneIndex::segment_free(&cold, p, q),
                sharded.segment_free(p, q),
                "step {step}: segment {p}-{q}"
            );
            if PlaneIndex::point_free(&cold, p) {
                for dir in Dir::ALL {
                    let hit = PlaneIndex::ray_hit(&cold, p, dir);
                    assert_eq!(hit, sharded.ray_hit(p, dir), "step {step}: ray {p} {dir:?}");
                    assert_eq!(
                        corners(&cold, p, dir, hit.stop),
                        corners(&sharded, p, dir, hit.stop),
                        "step {step}: corners {p} {dir:?}"
                    );
                }
            }
        }
    }
}

/// Incremental index maintenance differential: a plane whose topological
/// index was built once and then maintained by sorted insertion across
/// many mutations must answer every query — ray, corner, segment —
/// identically to (a) a plane whose index is rebuilt from scratch after
/// all inserts and (b) the un-indexed linear scan. This is the lockdown
/// for replacing the per-insert `build_index` re-sort.
#[test]
fn incrementally_maintained_index_matches_full_rebuild() {
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x1_DEC + case);
        let mut incremental = Plane::new(Rect::new(0, 0, RANGE, RANGE).unwrap());
        incremental.build_index(); // built empty, maintained ever after
        let mut linear = Plane::new(Rect::new(0, 0, RANGE, RANGE).unwrap());
        for step in 0..12 {
            let r = rect(&mut rng);
            incremental.add_obstacle(r);
            linear.add_obstacle(r);
            assert!(
                incremental.has_index(),
                "insert must keep the index current"
            );
            let mut rebuilt = linear.clone();
            rebuilt.build_index();
            for _ in 0..20 {
                let p = probe(&mut rng);
                assert_eq!(
                    linear.point_free(p),
                    incremental.point_free(p),
                    "case {case} step {step}: point {p}"
                );
                if !linear.point_free(p) {
                    continue;
                }
                for dir in Dir::ALL {
                    let want = rebuilt.ray_hit(p, dir);
                    assert_eq!(
                        incremental.ray_hit(p, dir),
                        want,
                        "case {case} step {step}: ray {p} {dir:?}"
                    );
                    assert_eq!(
                        linear.ray_hit(p, dir),
                        want,
                        "case {case} step {step}: linear ray {p} {dir:?}"
                    );
                    let mid = (p.coord(dir.axis()) + want.stop) / 2;
                    for stop in [want.stop, mid] {
                        let reference = corners(&linear, p, dir, stop);
                        assert_eq!(
                            corners(&incremental, p, dir, stop),
                            reference,
                            "case {case} step {step}: corners {p} {dir:?} @{stop}"
                        );
                        assert_eq!(
                            corners(&rebuilt, p, dir, stop),
                            reference,
                            "case {case} step {step}: rebuilt corners {p} {dir:?} @{stop}"
                        );
                    }
                    let q = probe(&mut rng);
                    let b = Point::new(q.x, p.y);
                    assert_eq!(
                        incremental.segment_free(p, b),
                        rebuilt.segment_free(p, b),
                        "case {case} step {step}: segment {p}-{b}"
                    );
                }
            }
        }
    }
}

/// Regression: a query whose rect straddles shard boundaries (ray and
/// segment both crossing several bucket columns, obstacle registered in
/// multiple buckets) must be answered correctly before *and* after an
/// insert on the far side of the boundary.
#[test]
fn straddling_queries_track_a_far_insert() {
    // Shard size 10 on a 100-wide plane: boundaries at 10, 20, ... The
    // obstacle spans columns 2..=5; the probes cross it and the seams.
    let mut sharded =
        ShardedPlane::with_shard_size(Plane::new(Rect::new(0, 0, 100, 100).unwrap()), 10);
    sharded.add_obstacle(Rect::new(25, 35, 55, 65).unwrap());
    let origin = Point::new(5, 50);
    let hit = sharded.ray_hit(origin, Dir::East);
    assert_eq!((hit.stop, hit.distance), (25, 20));
    // Straddling segment along the obstacle's face line is legal wire.
    assert!(sharded.segment_free(Point::new(0, 35), Point::new(100, 35)));
    // Insert a blocker inside a different shard column than the query
    // origins.
    sharded.add_obstacle(Rect::new(72, 30, 88, 70).unwrap());
    // The face-line segment now crosses the new blocker's interior? No —
    // y=35 is inside (30, 70), so it does: the earlier `true` must flip.
    assert!(!sharded.segment_free(Point::new(0, 35), Point::new(100, 35)));
    // The eastward ray still stops on the first obstacle.
    assert_eq!(sharded.ray_hit(origin, Dir::East), hit);
    // A ray past the first obstacle's face line finds the new blocker
    // across three shard columns of empty space.
    let hit2 = sharded.ray_hit(Point::new(60, 50), Dir::East);
    assert_eq!((hit2.stop, hit2.distance), (72, 12));
    // And everything still agrees with a cold flat plane.
    let mut cold = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
    for (r, _) in sharded.rects() {
        cold.add_obstacle(*r);
    }
    for y in [30, 35, 50, 65, 70] {
        let p = Point::new(0, y);
        assert_eq!(
            PlaneIndex::ray_hit(&cold, p, Dir::East),
            sharded.ray_hit(p, Dir::East),
            "y {y}"
        );
    }
}

/// Obstacles whose rectangles land exactly on shard boundaries must be
/// registered in every touching bucket: probes from both sides agree
/// with the flat plane.
#[test]
fn obstacles_on_shard_boundaries_block_from_both_sides() {
    let mut flat = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
    // Faces exactly on the 10-grid shard seams.
    flat.add_obstacle(Rect::new(30, 30, 70, 70).unwrap());
    let sharded = ShardedPlane::with_shard_size(flat.clone(), 10);
    for (p, dir) in [
        (Point::new(30, 50), Dir::West),
        (Point::new(30, 50), Dir::East),
        (Point::new(70, 50), Dir::East),
        (Point::new(70, 50), Dir::West),
        (Point::new(50, 30), Dir::South),
        (Point::new(50, 70), Dir::North),
    ] {
        assert_eq!(
            PlaneIndex::ray_hit(&flat, p, dir),
            sharded.ray_hit(p, dir),
            "{p} {dir:?}"
        );
    }
    for x in [29, 30, 31, 69, 70, 71] {
        let p = Point::new(x, 50);
        assert_eq!(
            PlaneIndex::point_free(&flat, p),
            sharded.point_free(p),
            "x {x}"
        );
    }
}

/// Shared faces: the first two obstacles share their exit face x = 60,
/// the first and third their entry face x = 40. Rays through a shared
/// face stop on it on every plane — linear, indexed, and sharded at every
/// shard size — including the westward ray on which the indexed scan once
/// disagreed (about which obstacle stopped it, never where).
#[test]
fn shared_faces_stop_every_plane_on_the_same_coordinate() {
    let mut linear = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
    linear.add_obstacle(Rect::new(40, 40, 60, 55).unwrap());
    linear.add_obstacle(Rect::new(30, 45, 60, 60).unwrap());
    linear.add_obstacle(Rect::new(40, 20, 50, 44).unwrap());
    let mut indexed = linear.clone();
    indexed.build_index();
    let mut planes: Vec<Box<dyn PlaneIndex>> = vec![Box::new(linear.clone()), Box::new(indexed)];
    for shard in [1, 9, 50, 200] {
        planes.push(Box::new(ShardedPlane::with_shard_size(
            linear.clone(),
            shard,
        )));
    }
    for (origin, dir, stop) in [
        (Point::new(100, 50), Dir::West, 60),
        (Point::new(100, 42), Dir::West, 60),
        (Point::new(0, 42), Dir::East, 40),
        (Point::new(0, 50), Dir::East, 30),
        (Point::new(45, 0), Dir::North, 20),
        (Point::new(45, 100), Dir::South, 60),
    ] {
        for plane in &planes {
            let hit = plane.ray_hit(origin, dir);
            assert_eq!(hit.stop, stop, "{plane:?}: {origin} {dir:?}");
            assert_eq!(hit, PlaneIndex::ray_hit(&linear, origin, dir));
        }
    }
}
