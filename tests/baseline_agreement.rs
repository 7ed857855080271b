//! Cross-crate agreement on the paper fixtures: the three routers and the
//! Steiner references must tell one consistent story.

use gcr::grid::{grid_astar, lee_moore};
use gcr::hightower::{hightower, HightowerConfig};
use gcr::prelude::*;
use gcr::steiner::{hwang_ratio_holds, iterated_one_steiner, rectilinear_mst};
use gcr::workload::fixtures;

#[test]
fn figure1_all_complete_routers_agree_on_length() {
    let (plane, s, d) = fixtures::figure1();
    let g = route_two_points(&plane, s, d, &RouterConfig::default()).unwrap();
    let ga = grid_astar(&plane, s, d, 1).unwrap();
    let lm = lee_moore(&plane, s, d, 1).unwrap();
    assert_eq!(g.cost.primary, ga.length);
    assert_eq!(ga.length, lm.length);
    // The expansion ordering claimed by the paper:
    assert!(g.stats.expanded < ga.stats.expanded);
    assert!(ga.stats.expanded < lm.stats.expanded);
    // And the memory ordering (touched nodes ≈ labels written).
    assert!(g.stats.touched < lm.stats.touched);
}

#[test]
fn figure1_hightower_is_cheap_but_longer_or_equal() {
    let (plane, s, d) = fixtures::figure1();
    let optimal = route_two_points(&plane, s, d, &RouterConfig::default()).unwrap();
    if let Ok(ht) = hightower(&plane, s, d, &HightowerConfig::default()) {
        assert!(ht.polyline.length() >= optimal.cost.primary);
        assert!(plane.polyline_free(&ht.polyline));
    }
}

#[test]
fn spiral_separates_the_router_generations() {
    let (plane, s, t) = fixtures::spiral();
    let tight = HightowerConfig {
        max_level: 3,
        max_lines: 400,
    };
    assert!(
        hightower(&plane, s, t, &tight).is_err(),
        "line probes must fail"
    );
    let lm = lee_moore(&plane, s, t, 1).expect("maze search succeeds");
    let g = route_two_points(&plane, s, t, &RouterConfig::default()).expect("gridless succeeds");
    assert_eq!(
        lm.length, g.cost.primary,
        "both complete routers are optimal"
    );
    assert!(g.stats.expanded < lm.stats.expanded);
}

/// Routes every net of `layout` through `engine` on a fresh session
/// (default config and schedule).
fn route_all<E: RoutingEngine>(layout: &Layout, engine: E) -> GlobalRouting {
    RoutingSession::builder(layout.clone())
        .engine(engine)
        .build()
        .route_all()
}

/// The tentpole's cross-backend contract, exercised on the standard
/// workload fixtures through the one `RoutingEngine` trait: the gridless
/// router's universe of paths contains every grid path, so per connection
/// its cost is never worse — and on pitch-1 integer instances the two
/// complete optimal engines must agree *exactly*.
#[test]
fn all_three_engines_route_the_workload_fixtures_through_the_trait() {
    let layout = gcr::workload::scaling_instance(3, 3, 12, 0, 7);
    let gridless = route_all(&layout, GridlessEngine);
    let grid = route_all(&layout, GridEngine::default());
    let lee = route_all(&layout, GridEngine::lee_moore());
    let probes = route_all(&layout, HightowerEngine::default());

    // Complete engines route everything the layout admits.
    assert!(gridless.failures.is_empty(), "{:?}", gridless.failures);
    assert!(grid.failures.is_empty(), "{:?}", grid.failures);
    assert_eq!(gridless.routed_count(), grid.routed_count());
    assert_eq!(grid.routed_count(), lee.routed_count());

    let plane = layout.to_plane();
    for g in &gridless.routes {
        // Per-net: gridless-A* cost <= grid-A* cost, equality for these
        // two-pin nets where both engines are optimal at pitch 1.
        let r = grid.route_for(g.id).expect("same nets routed");
        assert!(
            g.wire_length() <= r.wire_length(),
            "net {}: gridless {} > grid {}",
            g.net,
            g.wire_length(),
            r.wire_length()
        );
        assert_eq!(
            g.wire_length(),
            r.wire_length(),
            "net {}: both engines are optimal on two-pin pitch-1 nets",
            g.net
        );
        // Lee-Moore is the same path universe as grid A*: equal costs.
        let lm = lee.route_for(g.id).expect("same nets routed");
        assert_eq!(r.wire_length(), lm.wire_length(), "net {}", g.net);
        // ... but the informed search expands no more nodes.
        assert!(r.stats.expanded <= lm.stats.expanded, "net {}", g.net);
        // The incomplete prober: whatever it solved is legal and no
        // shorter than the optimum.
        if let Some(h) = probes.route_for(g.id) {
            assert!(h.wire_length() >= g.wire_length(), "net {}", g.net);
            for c in &h.connections {
                assert!(plane.polyline_free(&c.polyline), "net {}", g.net);
            }
        }
    }

    // Capability metadata tells the true story.
    assert!(GridlessEngine.capabilities().optimal);
    assert!(GridEngine::default().capabilities().complete);
    assert!(!HightowerEngine::default().capabilities().complete);
}

/// Multi-terminal nets through the trait. Per *connection* both complete
/// engines are optimal, so the first growth step (same sources, same
/// goals) must cost the same — but greedy Prim-style growth commits to
/// different ties, so whole-tree totals may legitimately diverge in
/// either direction. What is guaranteed: legal wire, every terminal
/// connected, and totals in the same ballpark.
#[test]
fn engines_agree_on_multi_terminal_workloads() {
    let layout = gcr::workload::scaling_instance(2, 3, 0, 6, 11);
    let gridless = route_all(&layout, GridlessEngine);
    let grid = route_all(&layout, GridEngine::default());
    assert!(gridless.failures.is_empty(), "{:?}", gridless.failures);
    assert!(grid.failures.is_empty(), "{:?}", grid.failures);
    let plane = layout.to_plane();
    for g in &gridless.routes {
        let r = grid.route_for(g.id).expect("same nets routed");
        // Step 1 is the same optimization problem for both engines.
        assert_eq!(
            g.connections[0].cost.primary, r.connections[0].cost.primary,
            "net {}: first connection must cost the same",
            g.net
        );
        // Legal wire everywhere.
        for c in g.connections.iter().chain(&r.connections) {
            assert!(plane.polyline_free(&c.polyline), "net {}", g.net);
        }
        // Every terminal of the net touches each engine's tree.
        let net = layout.net(g.id).unwrap();
        for (route, name) in [(g, "gridless"), (r, "grid")] {
            for terminal in net.terminals() {
                assert!(
                    terminal
                        .pins()
                        .iter()
                        .any(|p| route.tree.contains(p.position)),
                    "net {} ({name}): terminal not connected",
                    g.net
                );
            }
        }
        // Greedy divergence stays bounded on these fixtures.
        let (a, b) = (g.wire_length(), r.wire_length());
        assert!(
            a * 10 <= b * 13 && b * 10 <= a * 13,
            "net {}: totals too far apart (gridless {a}, grid {b})",
            g.net
        );
    }
}

#[test]
fn steiner_references_are_ordered() {
    // On obstacle-free pin sets: exact ≤ 1-Steiner ≤ MST and Hwang holds.
    let pins = [
        Point::new(0, 0),
        Point::new(40, 10),
        Point::new(10, 35),
        Point::new(35, 40),
    ];
    let mst = rectilinear_mst(&pins).length;
    let ios = iterated_one_steiner(&pins).length;
    assert!(ios <= mst);
    assert!(hwang_ratio_holds(mst, ios));
}

#[test]
fn router_steiner_tree_beats_its_own_pin_tree_on_fixtures() {
    // On an obstacle-free layout with a T of pins the segment-connection
    // rule must find the Steiner saving.
    let mut layout = Layout::new(Rect::new(0, 0, 120, 120).unwrap());
    let id = layout.add_net("tee");
    for (i, p) in [Point::new(10, 60), Point::new(110, 60), Point::new(60, 10)]
        .iter()
        .enumerate()
    {
        let t = layout.add_terminal(id, format!("t{i}"));
        layout.add_pin(t, Pin::floating(*p)).unwrap();
    }
    let mut session = RoutingSession::gridless(layout.clone(), RouterConfig::default());
    let steiner = session.route_net(id).unwrap().wire_length();
    let pin_tree = session.route_net_pin_tree(id).unwrap().wire_length();
    assert_eq!(steiner, 150); // trunk 100 + stem 50
    assert!(pin_tree > steiner);
    // And the obstacle-free exact reference agrees.
    let pins = [Point::new(10, 60), Point::new(110, 60), Point::new(60, 10)];
    assert_eq!(gcr::steiner::exact_rsmt(&pins).unwrap().length, 150);
}
