//! The differential harness guarding the session's schedule and the
//! sharded spatial plane: a [`RoutingSession`] over [`ShardedPlane`] (the
//! production index) must route **byte-identically** to one over the
//! reference [`Plane`] (linear scans), and a parallel session to a serial
//! one — same polylines, same costs, same statistics, same failure lists
//! — for every engine, across seeded random layouts. The reference is
//! always a fresh serial session that names [`PlaneIndexKind::Flat`]
//! explicitly: the default index is the sharded one.
//!
//! This is the lockdown the plane refactor ships under: a faster spatial
//! index that changes even one route is a broken spatial index. The
//! sweeps reuse the PR-1 seeded-loop style (`gcr::workload` instances are
//! fully determined by their arguments), so any failure reproduces from
//! its case number alone.

mod common;

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

fn session<E: RoutingEngine>(
    layout: &Layout,
    config: &RouterConfig,
    engine: E,
    batch: BatchConfig,
) -> RoutingSession<E> {
    RoutingSession::builder(layout.clone())
        .config(config.clone())
        .engine(engine)
        .batch(batch)
        .build()
}

/// The reference schedule: serial, over the reference plane.
fn reference() -> BatchConfig {
    BatchConfig::serial().with_index(PlaneIndexKind::Flat)
}

/// The four schedules every differential runs: both planes, serial and
/// on four workers.
fn schedules() -> [(BatchConfig, &'static str); 4] {
    let parallel = BatchConfig {
        threads: Some(4),
        ..BatchConfig::default()
    };
    [
        (reference(), "flat-serial"),
        (
            BatchConfig::serial().with_index(PlaneIndexKind::Sharded),
            "sharded-serial",
        ),
        (parallel.with_index(PlaneIndexKind::Flat), "flat-parallel"),
        (
            parallel.with_index(PlaneIndexKind::Sharded),
            "sharded-parallel",
        ),
    ]
}

/// Runs [`sweep_layout`] on `cases` seeded layouts; returns how much
/// `generated` fell on the net-by-net legs.
fn sweep_engine<E: RoutingEngine + Clone>(engine: E, name: &str, cases: u64) -> usize {
    (0..cases)
        .map(|case| {
            let layout = scaling_instance(2, 2, 5, 2, case);
            sweep_layout(&engine, &format!("{name}/case {case}"), &layout)
        })
        .sum()
}

/// Every schedule's `route_all` ≡ a fresh serial flat session's; and
/// ripping every net up and routing it again net by net through the
/// session's single-net entry point commits the same state, with the
/// ripped route as each search's incumbent (see
/// `common::assert_warm_matches_cold`). Returns how much `generated`
/// fell on the net-by-net legs.
fn sweep_layout<E: RoutingEngine + Clone>(engine: &E, name: &str, layout: &Layout) -> usize {
    let config = RouterConfig::default();
    let reference = session(layout, &config, engine.clone(), reference()).route_all();
    let mut fell = 0;
    for (batch, label) in schedules() {
        let what = format!("{name}/{label}");
        let mut session = session(layout, &config, engine.clone(), batch);
        assert_routing_identical(&reference, &session.route_all(), &what);
        for id in layout.net_ids() {
            session.rip_up(id);
        }
        for id in layout.net_ids() {
            let _ = session.route_net(id);
        }
        let what = format!("{what}: net-by-net");
        fell += common::assert_warm_matches_cold(&reference, &session.routing(), &what);
    }
    fell
}

/// The gridless sweep also covers the 30-, 60- and 120-net workload
/// scaling instances.
#[test]
fn gridless_engine_flat_equals_sharded_serial_and_parallel() {
    let mut fell = sweep_engine(GridlessEngine, "gridless", CASES);
    for (label, rows, cols, two_pin, multi) in [
        ("2x2-30", 2, 2, 24, 6),
        ("4x4-60", 4, 4, 48, 12),
        ("6x6-120", 6, 6, 96, 24),
    ] {
        let layout = scaling_instance(rows, cols, two_pin, multi, 0);
        fell += sweep_layout(&GridlessEngine, &format!("gridless/{label}"), &layout);
    }
    assert!(fell > 0, "the ripped routes must save nodes");
}

/// The baseline engines ignore the previous route, so their net-by-net
/// legs search exactly as much as a cold route.
#[test]
fn grid_engine_flat_equals_sharded_serial_and_parallel() {
    assert_eq!(sweep_engine(GridEngine::default(), "grid-astar", CASES), 0);
}

#[test]
fn hightower_engine_flat_equals_sharded_serial_and_parallel() {
    assert_eq!(
        sweep_engine(HightowerEngine::default(), "hightower", CASES),
        0
    );
}

/// The Lee–Moore wavefront regime (blind grid search) goes through the
/// same bounded engine; spot-check it on a few cases so all *four*
/// shipped engine configurations are covered.
#[test]
fn lee_moore_engine_flat_equals_sharded() {
    assert_eq!(sweep_engine(GridEngine::lee_moore(), "lee-moore", 4), 0);
}

/// The two-pass congestion flow (route, analyze, reroute under
/// surcharge) on every schedule: the report — both analyses, the reroute
/// count and the routing — must match the serial flat one exactly.
#[test]
fn two_pass_reports_are_identical_across_plane_indexes() {
    let mut config = RouterConfig::default();
    config.wire_pitch(4).congestion_weight(5);
    let mut rerouted = 0;
    for case in 0..6u64 {
        let layout = scaling_instance(2, 2, 8, 2, case);
        let reference = session(&layout, &config, GridlessEngine, reference()).route_two_pass();
        rerouted += reference.rerouted;
        for (batch, label) in schedules() {
            let what = format!("two-pass/{label}/case {case}");
            let report = session(&layout, &config, GridlessEngine, batch).route_two_pass();
            assert_eq!(report.rerouted, reference.rerouted, "{what}");
            assert_eq!(report.before.users, reference.before.users, "{what}");
            assert_eq!(report.after.users, reference.after.users, "{what}");
            assert_eq!(report.after.passages, reference.after.passages, "{what}");
            assert_routing_identical(&reference.routing, &report.routing, &what);
        }
    }
    assert!(rerouted > 0, "the sweep must exercise the second pass");
}

/// The corner query into a buffer that already holds a sentinel: the
/// query must clear it, so a stale answer can never leak into the next.
fn corners(plane: &dyn PlaneIndex, p: Point, dir: Dir, stop: Coord) -> Vec<Coord> {
    let mut out = vec![Coord::MIN];
    plane.corner_candidates_into(p, dir, stop, &mut out);
    out
}

/// Every ray and corner query from the free Hanan crossings of `oracle`
/// (full and clipped stops) must agree between `oracle` and each of
/// `planes`. Returns how many corner coordinates were compared.
fn assert_queries_agree(oracle: &Plane, planes: &[&dyn PlaneIndex], what: &str) -> usize {
    let xs = oracle.corner_coords(Axis::X);
    let ys = oracle.corner_coords(Axis::Y);
    let mut compared = 0;
    for &x in &xs {
        for &y in &ys {
            let p = Point::new(x, y);
            if !oracle.point_free(p) {
                continue;
            }
            for dir in Dir::ALL {
                let hit = oracle.ray_hit(p, dir);
                // Full ray and a clipped stop: both are real queries the
                // successor generator issues.
                let mid = (p.coord(dir.axis()) + hit.stop) / 2;
                for &plane in planes {
                    assert_eq!(plane.ray_hit(p, dir), hit, "{what}: ray {p} {dir:?}");
                    for stop in [hit.stop, mid] {
                        let want = corners(oracle, p, dir, stop);
                        assert_eq!(
                            corners(plane, p, dir, stop),
                            want,
                            "{what}: corners {p} {dir:?} @{stop} on {plane:?}"
                        );
                        compared += want.len();
                    }
                }
            }
        }
    }
    compared
}

/// Query-level sweep for the coordinate contract: on every workload
/// plane, the sharded plane answers every ray and corner query exactly
/// like the reference plane (the linear-scan oracle), for full and
/// clipped stops — as built, then after a translate and an insert
/// applied to both.
#[test]
fn corner_queries_agree_flat_sharded_before_and_after_insert() {
    let mut compared = 0;
    for case in 0..CASES {
        let layout = scaling_instance(2, 2, 3, 1, case);
        let mut sharded = ShardedPlane::new(layout.to_plane());
        let mut linear = layout.to_plane();
        compared += assert_queries_agree(&linear, &[&sharded], &format!("case {case}"));

        let b = linear.bounds();
        let moved = linear.rects()[0].1;
        let (cx, cy) = ((b.xmin() + b.xmax()) / 2, (b.ymin() + b.ymax()) / 2);
        let extra = Rect::new(cx, cy, (cx + 9).min(b.xmax()), (cy + 9).min(b.ymax()))
            .expect("in-bounds rect");
        assert!(linear.translate_obstacle(moved, 3, -2));
        assert!(sharded.translate_obstacle(moved, 3, -2));
        let what = format!("case {case} after translate");
        compared += assert_queries_agree(&linear, &[&sharded], &what);
        linear.add_obstacle(extra);
        sharded.add_obstacle(extra);
        let what = format!("case {case} after insert");
        compared += assert_queries_agree(&linear, &[&sharded], &what);
    }
    assert!(
        compared > 10_000,
        "the sweep must compare real corner lists"
    );
}

/// Scale-tier query differential: on the full 1k-net generated die (~900
/// obstacles — an order of magnitude past the macro-grid cases above),
/// the bucketed corner tables must agree bit for bit with the reference
/// plane's linear scan across sampled free probes, every direction, full
/// and clipped stops, and after a mutation updates the tables; rays agree
/// alongside.
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
                assert_eq!(
                    corners(&bucketed, p, dir, stop),
                    corners(&flat, p, dir, stop),
                    "probe {i}: bucketed {p} {dir:?} @{stop}"
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
            assert_eq!(
                corners(&bucketed, p, dir, hit.stop),
                corners(&flat2, p, dir, hit.stop),
                "post-insert probe {i}: bucketed {p} {dir:?}"
            );
        }
    }
}

/// The sampled 1k-tier routing differential: a deterministic sample of
/// the generated die's nets, routed over the **full** 1k-tier plane —
/// reference ≡ sharded, serial ≡ parallel, byte for byte.
#[test]
fn scale_tier_sampled_routes_flat_sharded_serial_parallel_identical() {
    let layout = sampled_scale_instance(50);
    let config = RouterConfig::default();
    let reference = session(&layout, &config, GridlessEngine, reference()).route_all();
    assert!(
        reference.routed_count() * 10 >= layout.nets().len() * 9,
        "scale tier must be routable: {} of {} routed",
        reference.routed_count(),
        layout.nets().len()
    );
    for (batch, label) in &schedules()[1..] {
        let routed = session(&layout, &config, GridlessEngine, *batch).route_all();
        assert_routing_identical(&reference, &routed, &format!("scale-tier/{label}"));
    }
}

/// Raw query-level differential sweep over the workload planes (the
/// seeded cases and the 120-net scaling instance): every ray, segment
/// and corner query an engine could issue must agree between the
/// reference and sharded planes. Routing equivalence (above) exercises
/// the reachable subset; this covers queries the particular routes
/// never asked.
#[test]
fn query_level_flat_sharded_agreement_on_workload_planes() {
    let cases = (0..CASES).map(|case| (format!("case {case}"), scaling_instance(2, 2, 3, 1, case)));
    let largest = ("6x6-120".to_string(), scaling_instance(6, 6, 96, 24, 0));
    for (case, layout) in cases.chain([largest]) {
        let flat = layout.to_plane();
        let sharded = ShardedPlane::new(layout.to_plane());
        let xs = PlaneIndex::corner_coords(&flat, Axis::X);
        let ys = PlaneIndex::corner_coords(&flat, Axis::Y);
        assert_eq!(xs, sharded.corner_coords(Axis::X), "case {case}");
        assert_eq!(ys, sharded.corner_coords(Axis::Y), "case {case}");
        let mut free = Vec::new();
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
                free.push(p);
                for dir in Dir::ALL {
                    let hit = PlaneIndex::ray_hit(&flat, p, dir);
                    assert_eq!(hit, sharded.ray_hit(p, dir), "case {case}: ray {p} {dir:?}");
                    assert_eq!(
                        corners(&flat, p, dir, hit.stop),
                        corners(&sharded, p, dir, hit.stop),
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
        // Consecutive free crossings, bent into an L where they share
        // neither coordinate.
        for w in free.windows(2) {
            let (a, b) = (w[0], w[1]);
            let legs = if a.x == b.x || a.y == b.y {
                vec![(a, b)]
            } else {
                let corner = Point::new(a.x, b.y);
                vec![(a, corner), (corner, b)]
            };
            for (s, t) in legs {
                assert_eq!(
                    PlaneIndex::segment_free(&flat, s, t),
                    sharded.segment_free(s, t),
                    "case {case}: segment {s}-{t}"
                );
            }
        }
    }
}

/// Every query the router issues — ray, full and clipped corner lists,
/// and segment legs toward the next probe — from `probes` free points of
/// `reference`, seeded by `label`, agrees with `sharded`. Returns how
/// many corner coordinates were compared.
fn assert_free_probes_agree(
    reference: &Plane,
    sharded: &ShardedPlane,
    label: &str,
    probes: usize,
    what: &str,
) -> usize {
    let mut rng = rng_for(label, 0);
    let points: Vec<Point> = (0..=probes)
        .map(|_| random_free_point(reference, &mut rng))
        .collect();
    let mut compared = 0;
    for (i, w) in points.windows(2).enumerate() {
        let (p, q) = (w[0], w[1]);
        assert!(sharded.point_free(p), "{what}, probe {i}: point {p}");
        for b in [Point::new(q.x, p.y), Point::new(p.x, q.y)] {
            assert_eq!(
                PlaneIndex::segment_free(reference, p, b),
                sharded.segment_free(p, b),
                "{what}, probe {i}: segment {p}-{b}"
            );
        }
        for dir in Dir::ALL {
            let hit = PlaneIndex::ray_hit(reference, p, dir);
            assert_eq!(
                hit,
                sharded.ray_hit(p, dir),
                "{what}, probe {i}: ray {p} {dir:?}"
            );
            let mid = (p.coord(dir.axis()) + hit.stop) / 2;
            for stop in [hit.stop, mid] {
                let want = corners(reference, p, dir, stop);
                assert_eq!(
                    corners(sharded, p, dir, stop),
                    want,
                    "{what}, probe {i}: corners {p} {dir:?} @{stop}"
                );
                compared += want.len();
            }
        }
    }
    compared
}

/// A whole generated scale tier (`with_nets(nets, 0)`):
/// * a cold serial route over the sharded plane equals the reference
///   one byte for byte;
/// * `ecos` seeded obstacle drops then each reroute exactly the nets
///   they marked dirty, on both sessions;
/// * 1,500 seeded free probes get the same answers from both planes
///   (see [`assert_free_probes_agree`]).
fn assert_scale_tier_flat_equals_sharded(nets: usize, ecos: usize) {
    let layout = generate(&GeneratorParams::with_nets(nets, 0));
    let bounds = layout.bounds();

    let config = RouterConfig::default();
    let serial = |index| BatchConfig::serial().with_index(index);
    let mut flat = session(
        &layout,
        &config,
        GridlessEngine,
        serial(PlaneIndexKind::Flat),
    );
    let mut sharded = session(
        &layout,
        &config,
        GridlessEngine,
        serial(PlaneIndexKind::Sharded),
    );
    let reference = flat.route_all();
    assert_routing_identical(&reference, &sharded.route_all(), &format!("{nets} nets"));
    for (index, warm) in [("flat", &mut flat), ("sharded", &mut sharded)] {
        let mut rng = rng_for("scale-eco", 0);
        for eco in 0..ecos {
            let p = random_free_point(warm.plane(), &mut rng);
            let x = p.x.clamp(bounds.xmin(), bounds.xmax() - 2);
            let y = p.y.clamp(bounds.ymin(), bounds.ymax() - 2);
            let rect = Rect::new(x, y, x + 2, y + 2).expect("in bounds");
            warm.add_obstacle(format!("eco{eco}"), rect)
                .expect("unique");
            let dirty = warm.stats().dirty;
            let outcome = warm.reroute_dirty();
            assert_eq!(outcome.attempted, dirty, "{nets} nets/{index}: eco {eco}");
        }
    }

    let flat = layout.to_plane();
    let sharded = ShardedPlane::new(flat.clone());
    assert_free_probes_agree(
        &flat,
        &sharded,
        "scale-sweep",
        1500,
        &format!("{nets} nets"),
    );
}

#[test]
fn scale_tier_120_flat_equals_sharded() {
    assert_scale_tier_flat_equals_sharded(120, 10);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a 1k-net die is slow unoptimized; runs under cargo test --release"
)]
fn scale_tier_1k_flat_equals_sharded() {
    assert_scale_tier_flat_equals_sharded(1000, 5);
}

/// The largest plane any test shards: exactly 10,000 obstacles (a fully
/// filled 100×100 slot grid). The sharded plane built from
/// `Layout::to_plane` must answer like the reference on 1,500 seeded free
/// probes as built, with one cell translated across several buckets, and
/// with it moved back.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "10k-obstacle linear scans are slow unoptimized; runs under cargo test --release"
)]
fn sharded_plane_matches_the_reference_on_the_10k_obstacle_grid() {
    let layout = generate(&GeneratorParams {
        rows: 100,
        cols: 100,
        fill: 1.0,
        nets: 1,
        ..GeneratorParams::default()
    });
    assert_eq!(layout.cells().len(), 10_000);
    let mut reference = layout.to_plane();
    let mut sharded = ShardedPlane::new(layout.to_plane());
    let (moved, dx, dy) = (5_050, 97, -61);
    let mut compared =
        assert_free_probes_agree(&reference, &sharded, "10k-sweep", 1_500, "as built");
    assert!(reference.translate_obstacle(moved, dx, dy));
    assert!(sharded.translate_obstacle(moved, dx, dy));
    compared += assert_free_probes_agree(&reference, &sharded, "10k-sweep", 1_500, "moved");
    assert!(reference.translate_obstacle(moved, -dx, -dy));
    assert!(sharded.translate_obstacle(moved, -dx, -dy));
    assert_eq!(reference.rects(), layout.to_plane().rects());
    compared += assert_free_probes_agree(&reference, &sharded, "10k-sweep", 1_500, "moved back");
    assert!(
        compared > 100_000,
        "the sweep must compare real corner lists: {compared}"
    );
}
