//! Point-to-point and tree-to-goal routing entry points.

use gcr_geom::{PlaneIndex, Point, Polyline};
use gcr_search::{astar_in, Found, LexCost, PathCost, SearchOutcome, SearchStats};

use crate::{
    EdgeCoster, GoalSet, RouteError, RouteState, RouteTree, RouterConfig, RoutingSpace,
    SearchScratch,
};

/// A routed connection: its shape, exact cost and search effort.
#[derive(Debug, Clone)]
pub struct RoutedPath {
    /// The wire, as a simplified rectilinear polyline.
    pub polyline: Polyline,
    /// The exact cost: primary = wire length (+ congestion surcharges),
    /// penalty = unanchored-bend ε count.
    pub cost: LexCost,
    /// Search-effort counters.
    pub stats: SearchStats,
}

impl RoutedPath {
    /// Wire length of the connection.
    #[must_use]
    pub fn length(&self) -> i64 {
        self.polyline.length()
    }

    /// Bend count of the connection.
    #[must_use]
    pub fn bends(&self) -> usize {
        self.polyline.bends()
    }
}

/// Routes a two-point connection across `plane`.
///
/// This is the paper's base case: find the minimal-cost rectilinear path
/// from `a` to `b` avoiding every cell, with no routing grid.
///
/// # Errors
///
/// * [`RouteError::InvalidEndpoint`] if either endpoint is out of bounds
///   or strictly inside a cell,
/// * [`RouteError::Unreachable`] if no legal path exists,
/// * [`RouteError::LimitExceeded`] under [`RouterConfig::max_expansions`].
pub fn route_two_points(
    plane: &dyn PlaneIndex,
    a: Point,
    b: Point,
    config: &RouterConfig,
) -> Result<RoutedPath, RouteError> {
    for p in [a, b] {
        if !plane.point_free(p) {
            return Err(RouteError::InvalidEndpoint { point: p });
        }
    }
    if a == b {
        return Ok(RoutedPath {
            polyline: Polyline::single(a),
            cost: LexCost::zero(),
            stats: SearchStats::default(),
        });
    }
    let goals = GoalSet::from_point(b);
    let sources = [(RouteState::source(a), LexCost::zero())];
    let coster = EdgeCoster::new(config);
    run(
        plane,
        &goals,
        &sources,
        coster,
        config,
        &[],
        &mut SearchScratch::new(),
        || format!("{a} -> {b}"),
    )
}

/// Routes from an existing [`RouteTree`] (every segment a legal connection
/// point) to the nearest member of `goals`, using `coster` for pricing
/// and `scratch` for every reusable allocation and for its budget.
///
/// `previous` are the connections of the net's last route, when it is
/// being rerouted. The cheapest of them that is still a path of this
/// search (replayed through the same ray stops the successor generator
/// uses) becomes the search's initial goal bound, so A\* creates fewer
/// nodes; the route, its cost and the expansions are the same as with
/// `&[]`.
///
/// This is one growth step of the paper's Steiner approximation; the
/// net driver (`driver::grow_net`) runs it once per terminal, through
/// [`GridlessEngine`](crate::GridlessEngine), reusing one scratch across
/// every connection of a net (and a session across every net of a
/// worker). Results never depend on what ran in the scratch before.
///
/// # Errors
///
/// As [`route_two_points`], with [`RouteError::NothingToRoute`] when the
/// tree or goal set is empty and [`RouteError::Cancelled`] when the
/// scratch's budget runs out.
pub fn route_from_tree(
    plane: &dyn PlaneIndex,
    tree: &RouteTree,
    goals: &GoalSet,
    coster: EdgeCoster<'_>,
    config: &RouterConfig,
    previous: &[RoutedPath],
    scratch: &mut SearchScratch,
) -> Result<RoutedPath, RouteError> {
    if tree.is_empty() || goals.is_empty() {
        return Err(RouteError::NothingToRoute {
            what: "tree-to-goal connection".into(),
        });
    }
    // The seed states are staged in the scratch and *taken out* for the
    // duration of the search (leaving an allocation-free empty `Vec`
    // behind), because the search itself borrows the scratch mutably.
    let mut seeds = std::mem::take(&mut scratch.seeds);
    tree.seeds_into(plane, goals, &mut scratch.seed_points, &mut seeds);
    let result = run(
        plane,
        goals,
        &seeds,
        coster,
        config,
        previous,
        scratch,
        || "tree-to-goal connection".into(),
    );
    scratch.seeds = seeds;
    result
}

#[allow(clippy::too_many_arguments)]
fn run(
    plane: &dyn PlaneIndex,
    goals: &GoalSet,
    sources: &[(RouteState, LexCost)],
    coster: EdgeCoster<'_>,
    config: &RouterConfig,
    previous: &[RoutedPath],
    scratch: &mut SearchScratch,
    what: impl Fn() -> String,
) -> Result<RoutedPath, RouteError> {
    let space = RoutingSpace::new(plane, goals, sources, coster).with_hanan_walk(config.hanan_walk);
    let incumbent = space.incumbent(previous);
    let SearchScratch {
        gridless,
        path_states,
        path_points,
        budget,
        ..
    } = scratch;
    let found = astar_in(
        &space,
        config.max_expansions,
        incumbent,
        budget,
        gridless,
        path_states,
    );
    match found {
        SearchOutcome::Found(Found { cost, stats, .. }) => {
            let polyline = if path_states.len() == 1 {
                Polyline::single(path_states[0].point)
            } else {
                Polyline::simplified_from_walk(path_states.iter().map(|s| s.point), path_points)
                    .expect("search edges are axis-aligned and non-degenerate")
            };
            debug_assert!(
                plane.polyline_free(&polyline),
                "router produced illegal wire"
            );
            Ok(RoutedPath {
                polyline,
                cost,
                stats,
            })
        }
        SearchOutcome::Exhausted(_) => Err(RouteError::Unreachable { what: what() }),
        SearchOutcome::LimitReached(_) => Err(RouteError::LimitExceeded {
            what: what(),
            limit: config.max_expansions.unwrap_or(0),
        }),
        SearchOutcome::Cancelled(reason, _) => Err(RouteError::Cancelled {
            what: what(),
            reason,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_geom::{Plane, Rect};

    fn open_plane() -> Plane {
        Plane::new(Rect::new(0, 0, 100, 100).unwrap())
    }

    fn one_block() -> Plane {
        let mut p = open_plane();
        p.add_obstacle(Rect::new(30, 30, 70, 70).unwrap());
        p
    }

    #[test]
    fn straight_shot_on_open_plane() {
        let plane = open_plane();
        let r = route_two_points(
            &plane,
            Point::new(10, 50),
            Point::new(90, 50),
            &RouterConfig::default(),
        )
        .unwrap();
        assert_eq!(r.cost, LexCost::new(80, 0));
        assert_eq!(r.length(), 80);
        assert_eq!(r.bends(), 0);
    }

    #[test]
    fn l_route_on_open_plane_is_manhattan() {
        let plane = open_plane();
        let r = route_two_points(
            &plane,
            Point::new(10, 10),
            Point::new(60, 90),
            &RouterConfig::default(),
        )
        .unwrap();
        assert_eq!(r.cost.primary, 50 + 80);
        assert_eq!(r.bends(), 1);
    }

    #[test]
    fn detour_around_block_is_minimal() {
        let plane = one_block();
        let r = route_two_points(
            &plane,
            Point::new(10, 50),
            Point::new(90, 50),
            &RouterConfig::default(),
        )
        .unwrap();
        // Straight is 80; the block forces 20 up/down and back: 120.
        assert_eq!(r.cost.primary, 120);
        assert!(plane.polyline_free(&r.polyline));
    }

    #[test]
    fn route_hugs_the_block() {
        let plane = one_block();
        let r = route_two_points(
            &plane,
            Point::new(10, 50),
            Point::new(90, 50),
            &RouterConfig::default(),
        )
        .unwrap();
        // The minimal detour runs along the block's face (y = 30 or 70,
        // x from 30 to 70).
        let on_face = r.polyline.segments().iter().any(|s| {
            s.axis() == gcr_geom::Axis::X
                && (s.cross() == 30 || s.cross() == 70)
                && s.span().lo() <= 30
                && s.span().hi() >= 70
        });
        assert!(on_face, "route does not hug the block: {}", r.polyline);
    }

    #[test]
    fn endpoints_inside_block_are_rejected() {
        let plane = one_block();
        let err = route_two_points(
            &plane,
            Point::new(50, 50),
            Point::new(90, 50),
            &RouterConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RouteError::InvalidEndpoint { .. }));
        let err = route_two_points(
            &plane,
            Point::new(10, 50),
            Point::new(200, 50),
            &RouterConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RouteError::InvalidEndpoint { .. }));
    }

    #[test]
    fn identical_endpoints_give_trivial_route() {
        let plane = open_plane();
        let r = route_two_points(
            &plane,
            Point::new(10, 10),
            Point::new(10, 10),
            &RouterConfig::default(),
        )
        .unwrap();
        assert_eq!(r.length(), 0);
        assert_eq!(r.cost, LexCost::zero());
    }

    #[test]
    fn full_height_wall_is_passed_along_the_boundary() {
        let mut plane = open_plane();
        // A wall spanning the full height: its *interior* is open, so the
        // boundary rows y=0 and y=100 remain legal wire and the route
        // squeaks past by hugging the plane edge.
        plane.add_obstacle(Rect::new(40, 0, 60, 100).unwrap());
        let r = route_two_points(
            &plane,
            Point::new(10, 50),
            Point::new(90, 50),
            &RouterConfig::default(),
        )
        .unwrap();
        assert_eq!(r.cost.primary, 80 + 100); // down 50, across 80, up 50
    }

    #[test]
    fn sealed_region_is_unreachable() {
        // A solid donut of mutually *overlapping* slabs around the goal:
        // overlapping (not merely touching) interiors leave no legal seam
        // for a wire to run through.
        let mut sealed = open_plane();
        sealed.add_obstacle(Rect::new(58, 26, 92, 32).unwrap()); // south
        sealed.add_obstacle(Rect::new(58, 68, 92, 74).unwrap()); // north
        sealed.add_obstacle(Rect::new(58, 26, 64, 74).unwrap()); // west
        sealed.add_obstacle(Rect::new(86, 26, 92, 74).unwrap()); // east
        let err = route_two_points(
            &sealed,
            Point::new(10, 50),
            Point::new(75, 50),
            &RouterConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RouteError::Unreachable { .. }));
    }

    #[test]
    fn expansion_limit_is_enforced() {
        let plane = one_block();
        let mut config = RouterConfig::default();
        config.max_expansions(Some(1));
        let err =
            route_two_points(&plane, Point::new(10, 50), Point::new(90, 50), &config).unwrap_err();
        assert!(matches!(err, RouteError::LimitExceeded { limit: 1, .. }));
    }

    #[test]
    fn route_from_tree_connects_nearest_goal() {
        let plane = open_plane();
        let config = RouterConfig::default();
        let mut tree = RouteTree::new();
        tree.add_polyline(&Polyline::new(vec![Point::new(0, 50), Point::new(100, 50)]).unwrap());
        let mut goals = GoalSet::from_point(Point::new(40, 90));
        goals.add_point(Point::new(70, 58));
        let coster = EdgeCoster::new(&config);
        let r = route_from_tree(
            &plane,
            &tree,
            &goals,
            coster,
            &config,
            &[],
            &mut SearchScratch::new(),
        )
        .unwrap();
        // Nearest goal is (70,58), 8 above the trunk.
        assert_eq!(r.cost.primary, 8);
        assert_eq!(r.polyline.start(), Point::new(70, 50));
        assert_eq!(r.polyline.end(), Point::new(70, 58));
    }

    #[test]
    fn route_from_empty_tree_is_error() {
        let plane = open_plane();
        let config = RouterConfig::default();
        let tree = RouteTree::new();
        let goals = GoalSet::from_point(Point::new(1, 1));
        let coster = EdgeCoster::new(&config);
        let mut scratch = SearchScratch::new();
        assert!(matches!(
            route_from_tree(&plane, &tree, &goals, coster, &config, &[], &mut scratch),
            Err(RouteError::NothingToRoute { .. })
        ));
    }

    #[test]
    fn pin_on_cell_face_is_reachable() {
        let plane = one_block();
        // Pin on the block's west face.
        let r = route_two_points(
            &plane,
            Point::new(10, 50),
            Point::new(30, 50),
            &RouterConfig::default(),
        )
        .unwrap();
        assert_eq!(r.cost.primary, 20);
        // Pin on the block's north face, approached around the corner.
        let r = route_two_points(
            &plane,
            Point::new(10, 50),
            Point::new(50, 70),
            &RouterConfig::default(),
        )
        .unwrap();
        assert_eq!(r.cost.primary, 60); // up 20 to y=70, east 40 along face
        assert!(plane.polyline_free(&r.polyline));
    }
}
