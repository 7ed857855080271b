//! The paper's termination-condition argument, run on the real routing
//! space: "If we were to ignore our terminating condition and stop only
//! when no more nodes were left on OPEN … all nodes would eventually be
//! expanded. This is called exhaustive search." Exhaustive search must
//! find the same optimum while expanding the entire reachable sparse
//! graph; A*'s early termination is what makes the router practical.

use gcr::prelude::*;
use gcr::router::{EdgeCoster, GoalSet, RouteState, RoutingSpace};
use gcr::search::{astar, exhaustive, LexCost, PathCost};

fn routing_space<'a>(
    plane: &'a Plane,
    goals: &'a GoalSet,
    config: &RouterConfig,
    from: Point,
) -> RoutingSpace<'a> {
    RoutingSpace::new(
        plane,
        goals,
        vec![(RouteState::source(from), LexCost::zero())],
        EdgeCoster::new(config),
    )
}

#[test]
fn exhaustive_search_finds_the_same_optimum_with_more_work() {
    let mut plane = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
    plane.add_obstacle(Rect::new(20, 20, 45, 60).unwrap());
    plane.add_obstacle(Rect::new(55, 40, 80, 80).unwrap());
    plane.build_index();
    let config = RouterConfig::default();
    let goals = GoalSet::from_point(Point::new(90, 90));
    let space = routing_space(&plane, &goals, &config, Point::new(5, 5));

    let informed = astar(&space).expect("reachable");
    let blind = exhaustive(&space).expect("reachable");
    assert_eq!(informed.cost.primary, blind.cost.primary);
    assert_eq!(
        informed.cost.primary,
        Point::new(5, 5).manhattan(Point::new(90, 90))
    );
    assert!(
        informed.stats.expanded < blind.stats.expanded,
        "termination condition must save work: {} vs {}",
        informed.stats.expanded,
        blind.stats.expanded
    );
}

#[test]
fn exhaustive_search_agrees_on_detour_instances() {
    // A blocking wall between the endpoints forces a real detour.
    let mut plane = Plane::new(Rect::new(0, 0, 80, 80).unwrap());
    plane.add_obstacle(Rect::new(30, 10, 40, 70).unwrap());
    plane.build_index();
    let config = RouterConfig::default();
    for (s, t) in [
        (Point::new(10, 40), Point::new(70, 40)),
        (Point::new(5, 20), Point::new(75, 60)),
        (Point::new(10, 5), Point::new(70, 75)),
    ] {
        let goals = GoalSet::from_point(t);
        let space = routing_space(&plane, &goals, &config, s);
        let informed = astar(&space).expect("reachable");
        let blind = exhaustive(&space).expect("reachable");
        assert_eq!(
            informed.cost, blind.cost,
            "{s} -> {t}: termination condition changed the optimum"
        );
    }
}
