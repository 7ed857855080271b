//! The paper's termination-condition argument, run on the real routing
//! space: "If we were to ignore our terminating condition and stop only
//! when no more nodes were left on OPEN … all nodes would eventually be
//! expanded. This is called exhaustive search." Exhaustive search must
//! find the same optimum while expanding the entire reachable sparse
//! graph; A*'s early termination is what makes the router practical.
//!
//! The same oracle idea checks the successor generator's ray pruning: A*
//! over a space that ends rays at the first stop A* would throw away must
//! expand the same nodes and find the same route as A* over the same
//! space handed no labels.

use gcr::prelude::*;
use gcr::router::congestion::{find_passages, CongestionPenalty};
use gcr::router::{EdgeCoster, GoalSet, RouteState, RouteTree, RoutingSpace};
use gcr::search::{
    astar, astar_in, exhaustive, Budget, Found, LexCost, PathCost, SearchArena, SearchOutcome,
    SearchSpace, SearchStats, ZeroHeuristic,
};
use gcr::workload::generator::{generate, GeneratorParams};

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

/// Hides the wrapped space's rays: A\* then walks every successor as an
/// edge of its own, pricing each when it is made, as eager A\* did.
struct Unpruned<'s, 'a>(&'s RoutingSpace<'a>);

impl SearchSpace for Unpruned<'_, '_> {
    type State = RouteState;
    type Cost = LexCost;
    fn start_states(&self, out: &mut Vec<(RouteState, LexCost)>) {
        self.0.start_states(out);
    }
    fn successors(&self, state: &RouteState, out: &mut Vec<(RouteState, LexCost)>) {
        self.0.successors(state, out);
    }
    fn is_goal(&self, state: &RouteState) -> bool {
        self.0.is_goal(state)
    }
    fn heuristic(&self, state: &RouteState) -> LexCost {
        self.0.heuristic(state)
    }
}

/// What one search of a [`run_both`] pair ended with.
struct Ran {
    path: Option<Vec<Point>>,
    cost: Option<LexCost>,
    stats: SearchStats,
}

/// Runs A\* over `space` and over its unpruned twin, asserts they agree,
/// and returns the found path's points with both runs' stats. Best-first
/// search (A\* without the heuristic) must agree with its unpruned twin
/// the same way, and so must both searches when seeded with the optimum
/// as an incumbent and when capped at half their expansions: they stop
/// at the same expansion with the same outcome.
fn run_both(
    space: &RoutingSpace<'_>,
    what: &str,
) -> (Option<Vec<Point>>, SearchStats, SearchStats) {
    let mut starts = Vec::new();
    space.start_states(&mut starts);
    let pair = |max_expansions, upper_bound, how: &str| {
        agree(
            search(space, max_expansions, upper_bound),
            search(&Unpruned(space), max_expansions, upper_bound),
            starts.len(),
            &format!("{what}{how}"),
        )
    };
    let (p, f) = pair(None, None, "");
    agree(
        search(&ZeroHeuristic(space), None, None),
        search(&ZeroHeuristic(&Unpruned(space)), None, None),
        starts.len(),
        &format!("{what} best-first"),
    );
    if let Some(cost) = p.cost {
        let (s, _) = pair(None, Some(cost), " seeded");
        assert_eq!(s.stats.expanded, p.stats.expanded, "{what} seeded");
    }
    if p.stats.expanded > 1 {
        let cap = p.stats.expanded / 2;
        let (c, _) = pair(Some(cap), None, " capped");
        assert_eq!(c.stats.expanded, cap, "{what} capped");
    }
    (p.path, p.stats, f.stats)
}

/// A\* to its end under an expansion cap and an incumbent, with the found
/// path moved into the outcome.
fn search<Sp: SearchSpace>(
    space: &Sp,
    max_expansions: Option<usize>,
    upper_bound: Option<Sp::Cost>,
) -> SearchOutcome<Sp::State, Sp::Cost> {
    let mut path = Vec::new();
    let budget = Budget::unlimited();
    match astar_in(
        space,
        max_expansions,
        upper_bound,
        &budget,
        &mut SearchArena::new(),
        &mut path,
    ) {
        SearchOutcome::Found(found) => SearchOutcome::Found(Found { path, ..found }),
        other => other,
    }
}

/// Asserts that a pruned and an unpruned search from `starts` sources
/// expanded the same nodes and ended the same way, with the same path and
/// cost if they found one, that each created exactly the nodes it
/// expanded plus the goal it reached, and that the rays placed no more
/// successors than the edge walk lists and held at most one OPEN entry
/// per ray (four per expansion) besides the starts. Returns what each
/// ran into.
fn agree(
    pruned: SearchOutcome<RouteState, LexCost>,
    full: SearchOutcome<RouteState, LexCost>,
    starts: usize,
    what: &str,
) -> (Ran, Ran) {
    let (p, f) = (*pruned.stats(), *full.stats());
    assert_eq!(
        (p.expanded, p.reopened),
        (f.expanded, f.reopened),
        "{what}: {p} vs {f}"
    );
    assert!(
        p.generated <= f.generated && p.max_open <= 4 * p.expanded + starts,
        "{what}: {p} vs {f} from {starts} starts"
    );
    for (run, side) in [(&pruned, "pruned"), (&full, "full")] {
        let s = run.stats();
        let goal = usize::from(matches!(run, SearchOutcome::Found(_)));
        assert_eq!(s.touched, s.expanded + goal, "{what} {side}: {s}");
    }
    let ran = |outcome: SearchOutcome<RouteState, LexCost>| match outcome {
        SearchOutcome::Found(found) => Ran {
            path: Some(found.path.iter().map(|s| s.point).collect()),
            cost: Some(found.cost),
            stats: found.stats,
        },
        other => Ran {
            path: None,
            cost: None,
            stats: *other.stats(),
        },
    };
    match (&pruned, &full) {
        (SearchOutcome::Found(p), SearchOutcome::Found(f)) => {
            assert_eq!(p.path, f.path, "{what}");
            assert_eq!(p.cost, f.cost, "{what}");
        }
        (SearchOutcome::Exhausted(_), SearchOutcome::Exhausted(_))
        | (SearchOutcome::LimitReached(_), SearchOutcome::LimitReached(_)) => {}
        (p, f) => panic!("{what}: outcomes differ: {p:?} vs {f:?}"),
    }
    (ran(pruned), ran(full))
}

/// Grows every net of a seeded die the way the net driver does — a
/// multi-source search from the tree's seeds toward every pin of the
/// unconnected terminals, repeated until all terminals are on the tree —
/// on flat and sharded planes, with and without a congestion surcharge,
/// and with the Hanan walk, and routes each search once more from the
/// same seeds arriving from a direction. Walking rays lazily and ending
/// them early must leave every expansion, path and cost as they were,
/// cold, seeded and capped, and add no work in any search; over the
/// sweep the rays must place strictly fewer stops and hold a smaller
/// OPEN at its largest. The Hanan walk never ends a ray early, so its
/// rays place every successor the edge walk lists. Nor may a source
/// that arrives from a direction: its label was set by no ray, and the
/// straight run ahead of it must not be skipped as swept.
#[test]
fn ray_pruning_changes_no_expansion_path_or_cost() {
    let config = RouterConfig::default();
    let (mut pruned, mut full) = (SearchStats::default(), SearchStats::default());
    let (mut hanan_searches, mut arrived_searches) = (0, 0);
    let (mut from_wire, mut multi_goal) = (0, 0);

    let mut block = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
    block.add_obstacle(Rect::new(30, 30, 70, 70).unwrap());
    let goals = GoalSet::from_point(Point::new(90, 10));
    let ahead = vec![(
        RouteState::arrived(Point::new(10, 10), Dir::East),
        LexCost::zero(),
    )];
    let space = RoutingSpace::new(&block, &goals, ahead, EdgeCoster::new(&config));
    let (path, _, _) = run_both(&space, "arrived east");
    assert_eq!(
        path,
        Some(vec![Point::new(10, 10), Point::new(90, 10)]),
        "the goal is straight ahead of the arrived source"
    );

    let (mut stage, mut pts) = (Vec::new(), Vec::new());
    for seed in 0..3u64 {
        let layout = generate(&GeneratorParams::with_nets(12, seed));
        let flat = layout.to_plane();
        let sharded = ShardedPlane::new(flat.clone());
        let congestion = CongestionPenalty::from_weighted_regions(
            find_passages(&flat)
                .iter()
                .step_by(2)
                .map(|p| (p.rect, p.corridor_axis, 3))
                .collect(),
        );
        assert!(congestion.region_count() > 0, "seed {seed}: no surcharge");
        for plane in [&flat as &dyn PlaneIndex, &sharded] {
            for (coster, hanan) in [
                (EdgeCoster::new(&config), false),
                (EdgeCoster::with_congestion(&config, &congestion), false),
                (EdgeCoster::new(&config), true),
            ] {
                for net in layout.nets() {
                    let terminals = net.terminals();
                    let mut tree = RouteTree::new();
                    for pin in terminals[0].pins() {
                        tree.add_point(pin.position);
                    }
                    let mut remaining: Vec<usize> = (1..terminals.len()).collect();
                    while !remaining.is_empty() {
                        let mut goals = GoalSet::new();
                        for &t in &remaining {
                            for pin in terminals[t].pins() {
                                goals.add_point(pin.position);
                            }
                        }
                        let mut seeds = Vec::new();
                        tree.seeds_into(plane, &goals, &mut stage, &mut pts, &mut seeds);
                        from_wire += usize::from(!tree.segments().is_empty());
                        multi_goal += usize::from(goals.points().len() > 1);
                        let what = format!("seed {seed} {plane:?} hanan {hanan} {}", net.name());
                        if !hanan {
                            let arrived: Vec<_> = seeds
                                .iter()
                                .zip(Dir::ALL.iter().cycle())
                                .map(|(&(s, c), &d)| (RouteState::arrived(s.point, d), c))
                                .collect();
                            let space = RoutingSpace::new(plane, &goals, arrived, coster);
                            let (_, p, f) = run_both(&space, &format!("{what} arrived"));
                            assert_eq!(p.generated, f.generated, "{what} arrived: {p} vs {f}");
                            arrived_searches += 1;
                        }
                        let space =
                            RoutingSpace::new(plane, &goals, seeds, coster).with_hanan_walk(hanan);
                        let (path, p, f) = run_both(&space, &what);
                        if hanan {
                            assert_eq!(p.generated, f.generated, "{what}: {p} vs {f}");
                            hanan_searches += 1;
                        } else {
                            pruned.absorb(&p);
                            full.absorb(&f);
                        }
                        let Some(points) = path else { break };
                        let reached = *points.last().expect("a path has a goal");
                        let t = *remaining
                            .iter()
                            .find(|&&t| terminals[t].pins().iter().any(|p| p.position == reached))
                            .expect("the search ends on a goal pin");
                        if points.len() > 1 {
                            tree.add_polyline(&Polyline::new(points).unwrap().simplified());
                        }
                        for pin in terminals[t].pins() {
                            tree.add_point(pin.position);
                        }
                        remaining.retain(|&x| x != t);
                    }
                }
            }
        }
    }
    assert!(from_wire > 0 && multi_goal > 0, "the sweep must grow trees");
    assert!(
        pruned.generated < full.generated && pruned.max_open < full.max_open,
        "pruning must save work: {pruned} vs {full}"
    );
    assert!(
        hanan_searches > 0 && arrived_searches > 0,
        "the sweep must run the Hanan walk and arrived sources"
    );
}
