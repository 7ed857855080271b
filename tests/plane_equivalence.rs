//! The differential harness guarding the sharded spatial plane: routing
//! over [`ShardedPlane`] must be **byte-identical** to routing over the
//! flat [`Plane`] — same polylines, same costs, same statistics, same
//! failure lists — for every engine, serially and in parallel, across
//! seeded random layouts.
//!
//! This is the lockdown the plane refactor ships under: a faster spatial
//! index that changes even one route is a broken spatial index. The
//! sweeps reuse the PR-1 seeded-loop style (`gcr::workload` instances are
//! fully determined by their arguments), so any failure reproduces from
//! its case number alone.

use gcr::prelude::*;
use gcr::workload::generator::{generate, GeneratorParams};
use gcr::workload::{random_free_point, rng_for, scaling_instance};

/// Number of seeded layouts the full three-engine sweep covers.
const CASES: u64 = 20;

/// The scale-tier differential instance: the full 1k-net generated die
/// (every cell, hence the exact 1k-tier routing surface) carrying a
/// deterministic sample of its nets, so the sweep runs in test-profile
/// time while still exercising the large-plane query paths.
fn sampled_scale_instance(keep: usize) -> Layout {
    let full = generate(&GeneratorParams::with_nets(1000, 0));
    let mut sampled = Layout::new(full.bounds());
    sampled.set_min_spacing(full.min_spacing());
    for cell in full.cells() {
        sampled
            .add_cell(cell.name(), cell.rect())
            .expect("generator cell names are unique");
    }
    let stride = (full.nets().len() / keep).max(1);
    for net in full.nets().iter().step_by(stride) {
        let id = sampled.add_net(net.name());
        for terminal in net.terminals() {
            let t = sampled.add_terminal(id, terminal.name());
            for &pin in terminal.pins() {
                // Cell ids transfer verbatim: the sample keeps every cell
                // in declaration order.
                sampled.add_pin(t, pin).expect("pin ids stay valid");
            }
        }
    }
    sampled.validate().expect("sampled instance stays valid");
    sampled
}

fn assert_routing_identical(reference: &GlobalRouting, other: &GlobalRouting, what: &str) {
    assert_eq!(
        reference.routes.len(),
        other.routes.len(),
        "{what}: route count"
    );
    for (a, b) in reference.routes.iter().zip(&other.routes) {
        assert_eq!(a.net, b.net, "{what}");
        assert_eq!(a.id, b.id, "{what}");
        assert_eq!(a.stats, b.stats, "{what}: net {}", a.net);
        assert_eq!(a.tree.points(), b.tree.points(), "{what}: net {}", a.net);
        assert_eq!(
            a.tree.segments(),
            b.tree.segments(),
            "{what}: net {}",
            a.net
        );
        assert_eq!(
            a.connections.len(),
            b.connections.len(),
            "{what}: net {}",
            a.net
        );
        for (ca, cb) in a.connections.iter().zip(&b.connections) {
            assert_eq!(ca.polyline, cb.polyline, "{what}: net {}", a.net);
            assert_eq!(ca.cost, cb.cost, "{what}: net {}", a.net);
            assert_eq!(ca.stats, cb.stats, "{what}: net {}", a.net);
        }
    }
    assert_eq!(
        reference.failures.len(),
        other.failures.len(),
        "{what}: failure count"
    );
    for ((ia, ea), (ib, eb)) in reference.failures.iter().zip(&other.failures) {
        assert_eq!(ia, ib, "{what}: failed net id");
        assert_eq!(ea, eb, "{what}: failure reason for {ia}");
    }
}

fn sweep_engine<E: RoutingEngine + Clone>(engine: E, name: &str, cases: u64) {
    for case in 0..cases {
        let layout = scaling_instance(2, 2, 5, 2, case);
        let config = RouterConfig::default();
        let reference = BatchRouter::new(&layout, config.clone(), engine.clone())
            .with_batch(BatchConfig::serial())
            .route_all();
        for (batch, label) in [
            (
                BatchConfig::serial().with_index(PlaneIndexKind::Sharded),
                "sharded-serial",
            ),
            (BatchConfig::default(), "flat-parallel"),
            (BatchConfig::sharded(), "sharded-parallel"),
        ] {
            let routed = BatchRouter::new(&layout, config.clone(), engine.clone())
                .with_batch(batch)
                .route_all();
            assert_routing_identical(&reference, &routed, &format!("{name}/{label}/case {case}"));
        }
    }
}

#[test]
fn gridless_engine_flat_equals_sharded_serial_and_parallel() {
    sweep_engine(GridlessEngine, "gridless", CASES);
}

#[test]
fn grid_engine_flat_equals_sharded_serial_and_parallel() {
    sweep_engine(GridEngine::default(), "grid-astar", CASES);
}

#[test]
fn hightower_engine_flat_equals_sharded_serial_and_parallel() {
    sweep_engine(HightowerEngine::default(), "hightower", CASES);
}

/// The Lee–Moore wavefront regime (blind grid search) goes through the
/// same bounded engine; spot-check it on a few cases so all *four*
/// shipped engine configurations are covered.
#[test]
fn lee_moore_engine_flat_equals_sharded() {
    sweep_engine(GridEngine::lee_moore(), "lee-moore", 4);
}

/// The two-pass congestion flow (route, analyze, reroute under
/// surcharge): the sharded report must match the flat one exactly,
/// before and after the reroute.
#[test]
fn two_pass_reports_are_identical_across_plane_indexes() {
    for case in 0..6u64 {
        let layout = scaling_instance(2, 2, 8, 2, case);
        let mut config = RouterConfig::default();
        config.wire_pitch(4).congestion_weight(5);
        let flat = BatchRouter::gridless(&layout, config.clone())
            .with_batch(BatchConfig::serial())
            .route_two_pass();
        let sharded = BatchRouter::gridless(&layout, config.clone())
            .with_batch(BatchConfig::sharded())
            .route_two_pass();
        assert_eq!(flat.rerouted, sharded.rerouted, "case {case}");
        assert_eq!(
            flat.before.total_overflow(),
            sharded.before.total_overflow(),
            "case {case}"
        );
        assert_eq!(
            flat.after.total_overflow(),
            sharded.after.total_overflow(),
            "case {case}"
        );
        assert_routing_identical(
            &flat.routing,
            &sharded.routing,
            &format!("two-pass/case {case}"),
        );
    }
}

/// What `corner_stops_into` must append: the distinct `at`s of the flat
/// plane's candidates, in their travel order.
fn distinct_ats(reference: &[gcr::geom::CornerCandidate]) -> Vec<Coord> {
    let mut ats: Vec<Coord> = reference.iter().map(|c| c.at).collect();
    ats.dedup();
    ats
}

/// `corner_stops_into` over a buffer that already holds a sentinel: the
/// query must append after it, never clear it.
fn stops_after_sentinel(plane: &dyn PlaneIndex, p: Point, dir: Dir, stop: Coord) -> Vec<Coord> {
    let mut out = vec![Coord::MIN];
    plane.corner_stops_into(p, dir, stop, &mut out);
    assert_eq!(out[0], Coord::MIN, "{p} {dir:?}: appended, not cleared");
    out.split_off(1)
}

/// Query-level sweep for the buffer-reuse corner contracts: on every
/// workload plane, `corner_candidates_into` must agree with the
/// allocating form across implementations (flat vs bucketed sharded,
/// repeated queries included), and `corner_stops_into` must append the
/// distinct `at`s of the flat candidates on both planes — for full and
/// clipped stops, and again after an insert rebuilds the tables. The
/// reused candidate buffer is deliberately left dirty between queries.
#[test]
fn corner_queries_agree_flat_sharded_before_and_after_insert() {
    for case in 0..CASES {
        let layout = scaling_instance(2, 2, 3, 1, case);
        let flat = layout.to_plane();
        let mut sharded = ShardedPlane::new(layout.to_plane());
        let xs = PlaneIndex::corner_coords(&flat, Axis::X);
        let ys = PlaneIndex::corner_coords(&flat, Axis::Y);
        let mut buf = Vec::new();
        let mut probes = Vec::new();
        for &x in &xs {
            for &y in &ys {
                let p = Point::new(x, y);
                if !PlaneIndex::point_free(&flat, p) {
                    continue;
                }
                for dir in Dir::ALL {
                    let hit = PlaneIndex::ray_hit(&flat, p, dir);
                    // Full ray and a clipped stop: both are real queries
                    // the successor generator issues.
                    let mid = (p.coord(dir.axis()) + hit.stop) / 2;
                    for stop in [hit.stop, mid] {
                        let reference = PlaneIndex::corner_candidates(&flat, p, dir, stop);
                        PlaneIndex::corner_candidates_into(&flat, p, dir, stop, &mut buf);
                        assert_eq!(buf, reference, "case {case}: flat into {p} {dir:?}");
                        sharded.corner_candidates_into(p, dir, stop, &mut buf);
                        assert_eq!(buf, reference, "case {case}: sharded {p} {dir:?}");
                        sharded.corner_candidates_into(p, dir, stop, &mut buf);
                        assert_eq!(buf, reference, "case {case}: sharded again {p} {dir:?}");
                        let ats = distinct_ats(&reference);
                        assert_eq!(
                            stops_after_sentinel(&flat, p, dir, stop),
                            ats,
                            "case {case}: flat stops {p} {dir:?} @{stop}"
                        );
                        assert_eq!(
                            stops_after_sentinel(&sharded, p, dir, stop),
                            ats,
                            "case {case}: sharded stops {p} {dir:?} @{stop}"
                        );
                        probes.push((p, dir, stop));
                    }
                }
            }
        }
        // Insert an obstacle: the bucketed tables must update in place
        // and both planes must agree again.
        let b = PlaneIndex::bounds(&flat);
        let (cx, cy) = ((b.xmin() + b.xmax()) / 2, (b.ymin() + b.ymax()) / 2);
        let blocker = Rect::new(cx, cy, (cx + 9).min(b.xmax()), (cy + 9).min(b.ymax()))
            .expect("in-bounds rect");
        let mut flat2 = layout.to_plane();
        flat2.add_obstacle(blocker);
        sharded.add_obstacle(blocker);
        for (p, dir, stop) in probes {
            if !PlaneIndex::point_free(&flat2, p) {
                continue;
            }
            let reference = PlaneIndex::corner_candidates(&flat2, p, dir, stop);
            sharded.corner_candidates_into(p, dir, stop, &mut buf);
            assert_eq!(
                buf, reference,
                "case {case}: post-insert {p} {dir:?} @{stop}"
            );
            let ats = distinct_ats(&reference);
            assert_eq!(
                stops_after_sentinel(&flat2, p, dir, stop),
                ats,
                "case {case}: post-insert flat stops {p} {dir:?} @{stop}"
            );
            assert_eq!(
                stops_after_sentinel(&sharded, p, dir, stop),
                ats,
                "case {case}: post-insert sharded stops {p} {dir:?} @{stop}"
            );
        }
    }
}

/// Scale-tier query differential: on the full 1k-net generated die (~900
/// obstacles — an order of magnitude past the macro-grid cases above),
/// the bucketed corner tables must agree bit for bit with the flat slab
/// scan — full candidates and coordinate-only stops — across sampled
/// free probes, every direction, full and clipped stops, and after a
/// mutation updates the tables.
#[test]
fn scale_tier_bucketed_corners_match_flat() {
    let layout = generate(&GeneratorParams::with_nets(1000, 0));
    let flat = layout.to_plane();
    let mut bucketed = ShardedPlane::new(layout.to_plane());
    let mut rng = rng_for("scale-eqv", 0);
    let mut probes = Vec::new();
    for i in 0..250 {
        let p = random_free_point(&flat, &mut rng);
        probes.push(p);
        for dir in Dir::ALL {
            let hit = PlaneIndex::ray_hit(&flat, p, dir);
            assert_eq!(hit, bucketed.ray_hit(p, dir), "probe {i}: ray {p} {dir:?}");
            let mid = (p.coord(dir.axis()) + hit.stop) / 2;
            for stop in [hit.stop, mid] {
                let reference = PlaneIndex::corner_candidates(&flat, p, dir, stop);
                assert_eq!(
                    bucketed.corner_candidates(p, dir, stop),
                    reference,
                    "probe {i}: bucketed {p} {dir:?} @{stop}"
                );
                let ats = distinct_ats(&reference);
                assert_eq!(
                    stops_after_sentinel(&flat, p, dir, stop),
                    ats,
                    "probe {i}: flat stops {p} {dir:?} @{stop}"
                );
                assert_eq!(
                    stops_after_sentinel(&bucketed, p, dir, stop),
                    ats,
                    "probe {i}: bucketed stops {p} {dir:?} @{stop}"
                );
            }
        }
    }
    // Mutate both planes identically: the corner tables must be updated
    // without drifting.
    let b = PlaneIndex::bounds(&flat);
    let (cx, cy) = ((b.xmin() + b.xmax()) / 2, (b.ymin() + b.ymax()) / 2);
    let blocker = Rect::new(cx, cy, (cx + 15).min(b.xmax()), (cy + 15).min(b.ymax()))
        .expect("in-bounds rect");
    let mut flat2 = layout.to_plane();
    flat2.add_obstacle(blocker);
    bucketed.add_obstacle(blocker);
    for (i, &p) in probes.iter().enumerate() {
        if !PlaneIndex::point_free(&flat2, p) {
            continue;
        }
        for dir in Dir::ALL {
            let hit = PlaneIndex::ray_hit(&flat2, p, dir);
            assert_eq!(hit, bucketed.ray_hit(p, dir), "post-insert probe {i}");
            let reference = PlaneIndex::corner_candidates(&flat2, p, dir, hit.stop);
            assert_eq!(
                bucketed.corner_candidates(p, dir, hit.stop),
                reference,
                "post-insert probe {i}: bucketed {p} {dir:?}"
            );
            let ats = distinct_ats(&reference);
            assert_eq!(
                stops_after_sentinel(&flat2, p, dir, hit.stop),
                ats,
                "post-insert probe {i}: flat stops {p} {dir:?}"
            );
            assert_eq!(
                stops_after_sentinel(&bucketed, p, dir, hit.stop),
                ats,
                "post-insert probe {i}: bucketed stops {p} {dir:?}"
            );
        }
    }
}

/// The sampled 1k-tier routing differential: a deterministic sample of
/// the generated die's nets, routed over the **full** 1k-tier plane —
/// flat ≡ sharded, serial ≡ parallel, byte for byte.
#[test]
fn scale_tier_sampled_routes_flat_sharded_serial_parallel_identical() {
    let layout = sampled_scale_instance(50);
    let config = RouterConfig::default();
    let reference = BatchRouter::gridless(&layout, config.clone())
        .with_batch(BatchConfig::serial())
        .route_all();
    assert!(
        reference.routed_count() * 10 >= layout.nets().len() * 9,
        "scale tier must be routable: {} of {} routed",
        reference.routed_count(),
        layout.nets().len()
    );
    for (batch, label) in [
        (
            BatchConfig::serial().with_index(PlaneIndexKind::Sharded),
            "sharded-serial",
        ),
        (BatchConfig::default(), "flat-parallel"),
        (BatchConfig::sharded(), "sharded-parallel"),
    ] {
        let routed = BatchRouter::gridless(&layout, config.clone())
            .with_batch(batch)
            .route_all();
        assert_routing_identical(&reference, &routed, &format!("scale-tier/{label}"));
    }
}

/// Raw query-level differential sweep over the workload planes: every
/// ray, segment and corner query an engine could issue must agree between
/// the flat and sharded implementations. Routing equivalence (above)
/// exercises the reachable subset; this covers queries the particular
/// routes never asked.
#[test]
fn query_level_flat_sharded_agreement_on_workload_planes() {
    for case in 0..CASES {
        let layout = scaling_instance(2, 2, 3, 1, case);
        let flat = layout.to_plane();
        let sharded = ShardedPlane::new(layout.to_plane());
        let xs = PlaneIndex::corner_coords(&flat, Axis::X);
        let ys = PlaneIndex::corner_coords(&flat, Axis::Y);
        assert_eq!(xs, sharded.corner_coords(Axis::X), "case {case}");
        assert_eq!(ys, sharded.corner_coords(Axis::Y), "case {case}");
        for &x in &xs {
            for &y in &ys {
                let p = Point::new(x, y);
                assert_eq!(
                    PlaneIndex::point_free(&flat, p),
                    sharded.point_free(p),
                    "case {case}: point {p}"
                );
                assert_eq!(
                    PlaneIndex::obstacle_at(&flat, p),
                    sharded.obstacle_at(p),
                    "case {case}: obstacle at {p}"
                );
                if !PlaneIndex::point_free(&flat, p) {
                    continue;
                }
                for dir in Dir::ALL {
                    let hit = PlaneIndex::ray_hit(&flat, p, dir);
                    assert_eq!(hit, sharded.ray_hit(p, dir), "case {case}: ray {p} {dir:?}");
                    assert_eq!(
                        PlaneIndex::corner_candidates(&flat, p, dir, hit.stop),
                        sharded.corner_candidates(p, dir, hit.stop),
                        "case {case}: corners {p} {dir:?}"
                    );
                }
            }
        }
        // Segment legality along every Hanan row/column pair.
        for &y in &ys {
            for w in xs.windows(2) {
                let (a, b) = (Point::new(w[0], y), Point::new(w[1], y));
                assert_eq!(
                    PlaneIndex::segment_free(&flat, a, b),
                    sharded.segment_free(a, b),
                    "case {case}: segment {a}-{b}"
                );
            }
        }
    }
}
