//! The Lee–Moore grid router — "a special case of the general search
//! algorithm".
//!
//! The paper: *"The most straightforward way of generating successors is to
//! divide the routing surface up into a grid … Each grid point adjacent to
//! the current node is considered a successor unless the grid point is
//! covered by an obstruction … If this model is used with ĥ(n) defined to
//! be 0 then it is equivalent to the Lee–Moore algorithm."*
//!
//! This crate provides exactly that: a uniform [`RoutingGrid`] rasterized
//! from the same [`Plane`](gcr_geom::Plane) the gridless router searches, plus
//!
//! * [`lee_moore`] — wavefront (breadth-first) expansion, ĥ = 0,
//! * [`grid_astar`] — the same grid successors with the Manhattan ĥ,
//!
//! so the reproduction can demonstrate both the special-case relationship
//! (identical path costs) and the efficiency claim (grid node counts grow
//! with area/pitch² while the gridless search touches only obstacle
//! corners).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use gcr_geom::{Coord, PlaneIndex, Point, Polyline};
use gcr_search::{
    astar, astar_with_limits_in, breadth_first, Found, Labels, SearchArena, SearchLimits,
    SearchOutcome, SearchSpace, SearchStats, ZeroHeuristic,
};

/// The reusable search arena of the grid routers: state = grid node,
/// cost = plane-unit length. One arena serves both the informed and the
/// blind (Lee–Moore) regimes — they share the state and cost types — and
/// is reset between searches, so reuse never changes results.
pub type GridSearchArena = SearchArena<(i32, i32), i64>;

/// A uniform routing grid over a plane, spacing = wire pitch.
///
/// Grid node `(i, j)` sits at `origin + (i·pitch, j·pitch)`. A node is
/// usable when it is a legal wire position; an edge between adjacent nodes
/// is usable when the connecting segment is legal wire (at pitch > 1 a
/// segment can cross a thin obstacle even when both endpoints are free, so
/// edges are checked, not just nodes).
#[derive(Debug, Clone, Copy)]
pub struct RoutingGrid<'a> {
    plane: &'a dyn PlaneIndex,
    origin: Point,
    pitch: Coord,
    nx: i32,
    ny: i32,
}

impl<'a> RoutingGrid<'a> {
    /// Builds the grid covering `plane` with the given pitch.
    ///
    /// # Panics
    ///
    /// Panics if `pitch < 1`.
    #[must_use]
    pub fn new(plane: &'a dyn PlaneIndex, pitch: Coord) -> RoutingGrid<'a> {
        assert!(pitch >= 1, "grid pitch must be at least 1");
        let b = plane.bounds();
        let origin = Point::new(b.xmin(), b.ymin());
        let nx = (b.width() / pitch + 1) as i32;
        let ny = (b.height() / pitch + 1) as i32;
        RoutingGrid {
            plane,
            origin,
            pitch,
            nx,
            ny,
        }
    }

    /// Grid dimensions `(columns, rows)`.
    #[must_use]
    pub fn dims(&self) -> (i32, i32) {
        (self.nx, self.ny)
    }

    /// Total number of grid nodes — the memory footprint Lee–Moore must
    /// be prepared to label.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nx as usize * self.ny as usize
    }

    /// The plane position of node `(i, j)`.
    #[must_use]
    pub fn point(&self, node: (i32, i32)) -> Point {
        Point::new(
            self.origin.x + node.0 as Coord * self.pitch,
            self.origin.y + node.1 as Coord * self.pitch,
        )
    }

    /// The node at plane position `p`, if `p` is exactly on the grid.
    #[must_use]
    pub fn snap(&self, p: Point) -> Option<(i32, i32)> {
        let dx = p.x - self.origin.x;
        let dy = p.y - self.origin.y;
        if dx % self.pitch != 0 || dy % self.pitch != 0 {
            return None;
        }
        let i = (dx / self.pitch) as i32;
        let j = (dy / self.pitch) as i32;
        (i >= 0 && i < self.nx && j >= 0 && j < self.ny).then_some((i, j))
    }

    /// Returns `true` if the node exists and is a legal wire position.
    #[must_use]
    pub fn usable(&self, node: (i32, i32)) -> bool {
        node.0 >= 0
            && node.0 < self.nx
            && node.1 >= 0
            && node.1 < self.ny
            && self.plane.point_free(self.point(node))
    }

    /// Returns `true` if the edge between two adjacent nodes is legal wire.
    #[must_use]
    pub fn edge_usable(&self, a: (i32, i32), b: (i32, i32)) -> bool {
        self.usable(a) && self.usable(b) && self.plane.segment_free(self.point(a), self.point(b))
    }

    /// The wire pitch.
    #[must_use]
    pub fn pitch(&self) -> Coord {
        self.pitch
    }
}

/// Errors from the grid routers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GridRouteError {
    /// An endpoint does not lie exactly on the routing grid.
    OffGrid {
        /// The offending point.
        point: Point,
    },
    /// An endpoint is outside the plane or inside an obstacle.
    InvalidEndpoint {
        /// The offending point.
        point: Point,
    },
    /// No grid path exists between the endpoints.
    Unreachable,
    /// A multi-point route was asked for with no sources or no goals.
    NothingToRoute,
    /// The per-call expansion limit was exceeded.
    LimitExceeded {
        /// The limit that was hit.
        limit: usize,
    },
}

impl fmt::Display for GridRouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridRouteError::OffGrid { point } => {
                write!(f, "endpoint {point} is not on the routing grid")
            }
            GridRouteError::InvalidEndpoint { point } => {
                write!(f, "endpoint {point} is not a legal wire position")
            }
            GridRouteError::Unreachable => write!(f, "no grid path exists"),
            GridRouteError::NothingToRoute => {
                write!(
                    f,
                    "multi-point grid route needs at least one source and one goal"
                )
            }
            GridRouteError::LimitExceeded { limit } => {
                write!(f, "grid search expansion limit {limit} exceeded")
            }
        }
    }
}

impl Error for GridRouteError {}

/// A route found on the grid.
#[derive(Debug, Clone)]
pub struct GridRoute {
    /// The route as a simplified polyline in plane coordinates.
    pub polyline: Polyline,
    /// Wire length in plane units.
    pub length: Coord,
    /// Search-effort counters ([`SearchStats::touched`] is the grid
    /// memory actually labelled).
    pub stats: SearchStats,
    /// Total grid nodes available (`area / pitch²` scale), for memory
    /// comparisons.
    pub grid_nodes: usize,
}

/// The grid search problem: 4-neighbor successors, unit (pitch) edges.
struct GridSpace<'a> {
    grid: &'a RoutingGrid<'a>,
    start: (i32, i32),
    goal: (i32, i32),
    use_heuristic: bool,
}

impl SearchSpace for GridSpace<'_> {
    type State = (i32, i32);
    type Cost = i64;

    fn start_states(&self) -> Vec<((i32, i32), i64)> {
        vec![(self.start, 0)]
    }

    fn successors(
        &self,
        s: &(i32, i32),
        _: &dyn Labels<(i32, i32), i64>,
        out: &mut Vec<((i32, i32), i64)>,
    ) {
        for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
            let n = (s.0 + dx, s.1 + dy);
            if self.grid.edge_usable(*s, n) {
                out.push((n, self.grid.pitch()));
            }
        }
    }

    fn is_goal(&self, s: &(i32, i32)) -> bool {
        *s == self.goal
    }

    fn heuristic(&self, s: &(i32, i32)) -> i64 {
        if self.use_heuristic {
            self.grid.point(*s).manhattan(self.grid.point(self.goal))
        } else {
            0
        }
    }
}

fn route_on_grid(
    plane: &dyn PlaneIndex,
    a: Point,
    b: Point,
    pitch: Coord,
    informed: bool,
) -> Result<GridRoute, GridRouteError> {
    let grid = RoutingGrid::new(plane, pitch);
    let start = grid.snap(a).ok_or(GridRouteError::OffGrid { point: a })?;
    let goal = grid.snap(b).ok_or(GridRouteError::OffGrid { point: b })?;
    if !grid.usable(start) {
        return Err(GridRouteError::InvalidEndpoint { point: a });
    }
    if !grid.usable(goal) {
        return Err(GridRouteError::InvalidEndpoint { point: b });
    }
    let space = GridSpace {
        grid: &grid,
        start,
        goal,
        use_heuristic: informed,
    };
    let found: Option<Found<(i32, i32), i64>> = if informed {
        astar(&space)
    } else {
        // Lee–Moore wavefront: FIFO expansion, which on a uniform grid is
        // exactly breadth-first search and returns a minimal path.
        breadth_first(&space)
    };
    match found {
        Some(Found { path, cost, stats }) => {
            let points: Vec<Point> = path.into_iter().map(|n| grid.point(n)).collect();
            let polyline = if points.len() == 1 {
                Polyline::single(points[0])
            } else {
                Polyline::new(points)
                    .expect("grid steps are axis-aligned")
                    .simplified()
            };
            Ok(GridRoute {
                polyline,
                length: cost,
                stats,
                grid_nodes: grid.node_count(),
            })
        }
        None => Err(GridRouteError::Unreachable),
    }
}

/// Routes `a → b` with the classic Lee–Moore wavefront (breadth-first
/// expansion, ĥ = 0). Returns a minimal-length grid path.
///
/// # Errors
///
/// See [`GridRouteError`].
pub fn lee_moore(
    plane: &dyn PlaneIndex,
    a: Point,
    b: Point,
    pitch: Coord,
) -> Result<GridRoute, GridRouteError> {
    route_on_grid(plane, a, b, pitch, false)
}

/// Routes `a → b` on the same grid with the Manhattan heuristic — the
/// "special case" A\* the paper derives Lee–Moore from, run informed.
///
/// # Errors
///
/// See [`GridRouteError`].
pub fn grid_astar(
    plane: &dyn PlaneIndex,
    a: Point,
    b: Point,
    pitch: Coord,
) -> Result<GridRoute, GridRouteError> {
    route_on_grid(plane, a, b, pitch, true)
}

/// The multi-source / multi-goal grid problem: start the wavefront from
/// every source at cost 0, terminate on any goal node. This is what lets
/// the grid baseline drive the same tree-growing net router as the
/// gridless engine (every connection step is sources = the partial tree,
/// goals = the unconnected pins).
struct MultiGridSpace<'a> {
    grid: &'a RoutingGrid<'a>,
    starts: Vec<(i32, i32)>,
    goals: BTreeSet<(i32, i32)>,
    goal_points: Vec<Point>,
    use_heuristic: bool,
}

impl SearchSpace for MultiGridSpace<'_> {
    type State = (i32, i32);
    type Cost = i64;

    fn start_states(&self) -> Vec<((i32, i32), i64)> {
        self.starts.iter().map(|&s| (s, 0)).collect()
    }

    fn successors(
        &self,
        s: &(i32, i32),
        _: &dyn Labels<(i32, i32), i64>,
        out: &mut Vec<((i32, i32), i64)>,
    ) {
        for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
            let n = (s.0 + dx, s.1 + dy);
            if self.grid.edge_usable(*s, n) {
                out.push((n, self.grid.pitch()));
            }
        }
    }

    fn is_goal(&self, s: &(i32, i32)) -> bool {
        self.goals.contains(s)
    }

    fn heuristic(&self, s: &(i32, i32)) -> i64 {
        if self.use_heuristic {
            let p = self.grid.point(*s);
            self.goal_points
                .iter()
                .map(|g| p.manhattan(*g))
                .min()
                .unwrap_or(0)
        } else {
            0
        }
    }
}

/// Routes from the nearest of `sources` to the nearest of `goals` on the
/// grid (multi-source, multi-goal). With `informed` the Manhattan
/// minimum-over-goals heuristic is used (admissible); otherwise the
/// search is blind (ĥ = 0, the Lee–Moore regime — run through the same
/// bounded engine so `max_expansions` applies, which on the uniform grid
/// returns the same minimal lengths as the classic wavefront).
///
/// Sources and goals are deduplicated; the search is deterministic
/// (sources are seeded in sorted grid order, ties broken by the engine's
/// sequence numbers). `max_expansions` bounds the search effort per call
/// (`None` = unlimited).
///
/// # Errors
///
/// * [`GridRouteError::NothingToRoute`] for empty sources or goals,
/// * [`GridRouteError::OffGrid`] / [`GridRouteError::InvalidEndpoint`]
///   for illegal endpoints,
/// * [`GridRouteError::Unreachable`] when no grid path exists,
/// * [`GridRouteError::LimitExceeded`] when `max_expansions` is hit.
pub fn route_multi(
    plane: &dyn PlaneIndex,
    sources: &[Point],
    goals: &[Point],
    pitch: Coord,
    informed: bool,
    max_expansions: Option<usize>,
) -> Result<GridRoute, GridRouteError> {
    route_multi_in(
        plane,
        sources,
        goals,
        pitch,
        informed,
        max_expansions,
        &mut GridSearchArena::new(),
    )
}

/// [`route_multi`] with a caller-owned [`GridSearchArena`], so batch
/// drivers routing many connections amortize the search's allocations.
/// The arena is reset on entry; results are bit-identical to
/// [`route_multi`].
///
/// # Errors
///
/// See [`route_multi`].
pub fn route_multi_in(
    plane: &dyn PlaneIndex,
    sources: &[Point],
    goals: &[Point],
    pitch: Coord,
    informed: bool,
    max_expansions: Option<usize>,
    arena: &mut GridSearchArena,
) -> Result<GridRoute, GridRouteError> {
    if sources.is_empty() || goals.is_empty() {
        return Err(GridRouteError::NothingToRoute);
    }
    let grid = RoutingGrid::new(plane, pitch);
    let mut starts: BTreeSet<(i32, i32)> = BTreeSet::new();
    for &p in sources {
        let node = grid.snap(p).ok_or(GridRouteError::OffGrid { point: p })?;
        if !grid.usable(node) {
            return Err(GridRouteError::InvalidEndpoint { point: p });
        }
        starts.insert(node);
    }
    let mut goal_nodes: BTreeSet<(i32, i32)> = BTreeSet::new();
    let mut goal_points: Vec<Point> = Vec::new();
    for &p in goals {
        let node = grid.snap(p).ok_or(GridRouteError::OffGrid { point: p })?;
        if !grid.usable(node) {
            return Err(GridRouteError::InvalidEndpoint { point: p });
        }
        if goal_nodes.insert(node) {
            goal_points.push(grid.point(node));
        }
    }
    let space = MultiGridSpace {
        grid: &grid,
        starts: starts.into_iter().collect(),
        goals: goal_nodes,
        goal_points,
        use_heuristic: informed,
    };
    let limits = SearchLimits { max_expansions };
    let outcome = if informed {
        astar_with_limits_in(&space, limits, arena)
    } else {
        astar_with_limits_in(&ZeroHeuristic(&space), limits, arena)
    };
    match outcome {
        SearchOutcome::Found(Found { path, cost, stats }) => {
            let points: Vec<Point> = path.into_iter().map(|n| grid.point(n)).collect();
            let polyline = if points.len() == 1 {
                Polyline::single(points[0])
            } else {
                Polyline::new(points)
                    .expect("grid steps are axis-aligned")
                    .simplified()
            };
            Ok(GridRoute {
                polyline,
                length: cost,
                stats,
                grid_nodes: grid.node_count(),
            })
        }
        SearchOutcome::Exhausted(_) => Err(GridRouteError::Unreachable),
        // No budget is threaded into the grid searcher (session drivers
        // bound grid work per net instead), so a Cancelled outcome can
        // only mean the effort bound was enforced elsewhere — fold it
        // into the limit error rather than inventing a new one.
        SearchOutcome::LimitReached(_) | SearchOutcome::Cancelled(..) => {
            Err(GridRouteError::LimitExceeded {
                limit: max_expansions.unwrap_or(0),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_geom::{Plane, Rect};

    fn open_plane() -> Plane {
        Plane::new(Rect::new(0, 0, 60, 60).unwrap())
    }

    fn one_block() -> Plane {
        let mut p = open_plane();
        p.add_obstacle(Rect::new(20, 20, 40, 40).unwrap());
        p
    }

    #[test]
    fn grid_geometry() {
        let plane = open_plane();
        let g = RoutingGrid::new(&plane, 1);
        assert_eq!(g.dims(), (61, 61));
        assert_eq!(g.node_count(), 61 * 61);
        assert_eq!(g.point((0, 0)), Point::new(0, 0));
        assert_eq!(g.point((60, 60)), Point::new(60, 60));
        assert_eq!(g.snap(Point::new(5, 7)), Some((5, 7)));
        assert_eq!(g.snap(Point::new(70, 0)), None);
        let g2 = RoutingGrid::new(&plane, 2);
        assert_eq!(g2.dims(), (31, 31));
        assert_eq!(g2.snap(Point::new(5, 6)), None); // off pitch
        assert_eq!(g2.snap(Point::new(6, 6)), Some((3, 3)));
    }

    #[test]
    fn usability_respects_obstacles() {
        let plane = one_block();
        let g = RoutingGrid::new(&plane, 1);
        assert!(g.usable((0, 0)));
        assert!(!g.usable((30, 30))); // interior
        assert!(g.usable((20, 30))); // face
        assert!(!g.usable((-1, 0)));
        assert!(!g.usable((61, 0)));
    }

    #[test]
    fn straight_route_on_open_plane() {
        let plane = open_plane();
        let r = lee_moore(&plane, Point::new(0, 30), Point::new(60, 30), 1).unwrap();
        assert_eq!(r.length, 60);
        assert_eq!(r.polyline.bends(), 0);
    }

    #[test]
    fn detour_matches_expected_length() {
        let plane = one_block();
        let lm = lee_moore(&plane, Point::new(0, 30), Point::new(60, 30), 1).unwrap();
        let ga = grid_astar(&plane, Point::new(0, 30), Point::new(60, 30), 1).unwrap();
        // Straight 60 + 2×10 detour to a face of the 20..40 block.
        assert_eq!(lm.length, 80);
        assert_eq!(ga.length, 80);
    }

    #[test]
    fn informed_grid_search_expands_fewer_nodes() {
        let plane = one_block();
        let lm = lee_moore(&plane, Point::new(0, 30), Point::new(60, 30), 1).unwrap();
        let ga = grid_astar(&plane, Point::new(0, 30), Point::new(60, 30), 1).unwrap();
        assert!(
            ga.stats.expanded < lm.stats.expanded,
            "A* {} vs Lee-Moore {}",
            ga.stats.expanded,
            lm.stats.expanded
        );
    }

    #[test]
    fn routes_hug_but_never_enter_blocks() {
        let plane = one_block();
        let r = lee_moore(&plane, Point::new(0, 30), Point::new(60, 30), 1).unwrap();
        assert!(plane.polyline_free(&r.polyline));
    }

    #[test]
    fn coarse_pitch_still_finds_route() {
        let plane = one_block();
        let r = lee_moore(&plane, Point::new(0, 30), Point::new(60, 30), 5).unwrap();
        assert!(r.length >= 80);
        assert!(r.grid_nodes < 13 * 13 + 1);
    }

    #[test]
    fn coarse_pitch_cannot_squeeze_through_thin_gaps() {
        // A 1-wide slit at an odd coordinate is invisible at pitch 2 (the
        // gap column is off-grid), so the router must go around or fail.
        let mut plane = Plane::new(Rect::new(0, 0, 20, 20).unwrap());
        plane.add_obstacle(Rect::new(8, 0, 9, 9).unwrap());
        plane.add_obstacle(Rect::new(8, 11, 9, 20).unwrap());
        // Fine grid can slip through the slit row y in [9, 11] at x=8..9?
        // The slit is between y=9 and y=11 at x in 8..9: the row y=10 is
        // free. Fine pitch uses it:
        let fine = lee_moore(&plane, Point::new(0, 10), Point::new(20, 10), 1).unwrap();
        assert_eq!(fine.length, 20);
        // Pitch 2: nodes at even coords; crossing x=8..9 needs the edge
        // (8,10)-(10,10): segment passes x in [8,10] at y=10 — the slit is
        // exactly at y 9..11, obstacle interiors are (8,9)x(0,9) and
        // (8,9)x(11,20): y=10 not inside either. Edge passes. So this
        // particular slit is routable even at pitch 2; verify lengths agree.
        let coarse = lee_moore(&plane, Point::new(0, 10), Point::new(20, 10), 2).unwrap();
        assert_eq!(coarse.length, 20);
    }

    #[test]
    fn error_cases() {
        let plane = one_block();
        assert!(matches!(
            lee_moore(&plane, Point::new(30, 30), Point::new(0, 0), 1),
            Err(GridRouteError::InvalidEndpoint { .. })
        ));
        assert!(matches!(
            lee_moore(&plane, Point::new(1, 1), Point::new(3, 3), 2),
            Err(GridRouteError::OffGrid { .. })
        ));
        let mut sealed = Plane::new(Rect::new(0, 0, 20, 20).unwrap());
        sealed.add_obstacle(Rect::new(4, 0, 8, 20).unwrap());
        // The wall reaches both boundaries; its interior is open but at
        // pitch 1 the boundary rows y=0 and y=20 are legal... so routing
        // still succeeds along the boundary. Seal with overlap past the
        // boundary lines is impossible; instead verify reachability:
        let r = lee_moore(&sealed, Point::new(0, 10), Point::new(20, 10), 1).unwrap();
        assert_eq!(r.length, 40);
    }

    #[test]
    fn truly_unreachable_on_grid() {
        // Box the goal with overlapping slabs (no legal seams).
        let mut plane = Plane::new(Rect::new(0, 0, 30, 30).unwrap());
        plane.add_obstacle(Rect::new(8, 8, 22, 12).unwrap());
        plane.add_obstacle(Rect::new(8, 18, 22, 22).unwrap());
        plane.add_obstacle(Rect::new(8, 8, 12, 22).unwrap());
        plane.add_obstacle(Rect::new(18, 8, 22, 22).unwrap());
        assert!(matches!(
            lee_moore(&plane, Point::new(0, 0), Point::new(15, 15), 1),
            Err(GridRouteError::Unreachable)
        ));
    }

    #[test]
    fn multi_route_picks_nearest_source_goal_pair() {
        let plane = one_block();
        // Sources on the left edge, goals on the right: the aligned pair
        // (0,10) -> (60,10) clears the block and costs 60.
        let sources = [Point::new(0, 50), Point::new(0, 10)];
        let goals = [Point::new(60, 10), Point::new(60, 55)];
        let r = route_multi(&plane, &sources, &goals, 1, true, None).unwrap();
        assert_eq!(r.length, 60);
        assert_eq!(r.polyline.start(), Point::new(0, 10));
        assert_eq!(r.polyline.end(), Point::new(60, 10));
        // Informed and blind agree on cost.
        let blind = route_multi(&plane, &sources, &goals, 1, false, None).unwrap();
        assert_eq!(blind.length, 60);
    }

    #[test]
    fn multi_route_matches_single_route_for_one_pair() {
        let plane = one_block();
        let (a, b) = (Point::new(0, 30), Point::new(60, 30));
        let single = grid_astar(&plane, a, b, 1).unwrap();
        let multi = route_multi(&plane, &[a], &[b], 1, true, None).unwrap();
        assert_eq!(single.length, multi.length);
    }

    #[test]
    fn multi_route_error_cases() {
        let plane = one_block();
        assert!(matches!(
            route_multi(&plane, &[], &[Point::new(0, 0)], 1, true, None),
            Err(GridRouteError::NothingToRoute)
        ));
        assert!(matches!(
            route_multi(&plane, &[Point::new(0, 0)], &[], 1, true, None),
            Err(GridRouteError::NothingToRoute)
        ));
        assert!(matches!(
            route_multi(
                &plane,
                &[Point::new(30, 30)],
                &[Point::new(0, 0)],
                1,
                true,
                None
            ),
            Err(GridRouteError::InvalidEndpoint { .. })
        ));
        assert!(matches!(
            route_multi(
                &plane,
                &[Point::new(1, 1)],
                &[Point::new(3, 3)],
                2,
                true,
                None
            ),
            Err(GridRouteError::OffGrid { .. })
        ));
    }

    #[test]
    fn multi_route_enforces_expansion_limit() {
        let plane = one_block();
        let (a, b) = (Point::new(0, 30), Point::new(60, 30));
        assert!(matches!(
            route_multi(&plane, &[a], &[b], 1, true, Some(1)),
            Err(GridRouteError::LimitExceeded { limit: 1 })
        ));
        assert!(matches!(
            route_multi(&plane, &[a], &[b], 1, false, Some(1)),
            Err(GridRouteError::LimitExceeded { limit: 1 })
        ));
        // Unlimited still routes.
        assert!(route_multi(&plane, &[a], &[b], 1, true, None).is_ok());
    }

    #[test]
    fn expansion_limit_threshold_is_exact() {
        // The limit is checked before each expansion and the goal test
        // runs first, so a search that needs exactly E expansions must
        // succeed with `Some(E)` and fail with `Some(E - 1)` — in both
        // the informed and the blind (Lee–Moore) regimes.
        let plane = one_block();
        let (a, b) = (Point::new(0, 30), Point::new(60, 30));
        for informed in [true, false] {
            let full = route_multi(&plane, &[a], &[b], 1, informed, None).unwrap();
            let needed = full.stats.expanded;
            assert!(needed > 1, "detour must take work (informed {informed})");
            let bounded = route_multi(&plane, &[a], &[b], 1, informed, Some(needed)).unwrap();
            assert_eq!(bounded.length, full.length, "informed {informed}");
            assert_eq!(
                bounded.stats.expanded, needed,
                "bounded run must do identical work (informed {informed})"
            );
            assert!(
                matches!(
                    route_multi(&plane, &[a], &[b], 1, informed, Some(needed - 1)),
                    Err(GridRouteError::LimitExceeded { limit }) if limit == needed - 1
                ),
                "one fewer expansion must fail with the limit echoed (informed {informed})"
            );
        }
    }

    #[test]
    fn expansion_limit_error_reports_the_configured_limit() {
        let plane = one_block();
        let (a, b) = (Point::new(0, 30), Point::new(60, 30));
        for limit in [1usize, 5, 17] {
            match route_multi(&plane, &[a], &[b], 1, true, Some(limit)) {
                Err(GridRouteError::LimitExceeded { limit: l }) => assert_eq!(l, limit),
                other => panic!("limit {limit}: expected LimitExceeded, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_expansion_limit_still_resolves_source_on_goal() {
        // A source that is already a goal terminates at the goal test,
        // which precedes the limit check — zero budget must succeed.
        let plane = open_plane();
        let p = Point::new(5, 5);
        let r = route_multi(&plane, &[p], &[p], 1, true, Some(0)).unwrap();
        assert_eq!(r.length, 0);
        assert_eq!(r.stats.expanded, 0);
        // A source strictly away from every goal cannot.
        assert!(matches!(
            route_multi(&plane, &[p], &[Point::new(6, 5)], 1, true, Some(0)),
            Err(GridRouteError::LimitExceeded { limit: 0 })
        ));
    }

    #[test]
    fn expansion_limit_does_not_perturb_successful_routes() {
        // A generous bound must leave the deterministic result untouched.
        let plane = one_block();
        let sources = [Point::new(0, 50), Point::new(0, 10)];
        let goals = [Point::new(60, 10), Point::new(60, 55)];
        let free = route_multi(&plane, &sources, &goals, 1, true, None).unwrap();
        let capped = route_multi(&plane, &sources, &goals, 1, true, Some(1_000_000)).unwrap();
        assert_eq!(free.polyline, capped.polyline);
        assert_eq!(free.stats, capped.stats);
    }

    #[test]
    fn reused_arena_matches_fresh_route_multi() {
        // One arena, interleaved differently-shaped searches (informed,
        // blind, multi-source, unreachable budget): every call must be
        // bit-identical to a fresh-arena run.
        let plane = one_block();
        let mut arena = GridSearchArena::new();
        let sources = [Point::new(0, 50), Point::new(0, 10)];
        let goals = [Point::new(60, 10), Point::new(60, 55)];
        for round in 0..2 {
            for informed in [true, false] {
                let reused =
                    route_multi_in(&plane, &sources, &goals, 1, informed, None, &mut arena)
                        .unwrap();
                let fresh = route_multi(&plane, &sources, &goals, 1, informed, None).unwrap();
                assert_eq!(reused.polyline, fresh.polyline, "round {round}");
                assert_eq!(reused.length, fresh.length, "round {round}");
                assert_eq!(reused.stats, fresh.stats, "round {round}");
            }
            // A limit hit must not poison the next search either.
            assert!(matches!(
                route_multi_in(
                    &plane,
                    &[Point::new(0, 30)],
                    &[Point::new(60, 30)],
                    1,
                    true,
                    Some(1),
                    &mut arena
                ),
                Err(GridRouteError::LimitExceeded { limit: 1 })
            ));
        }
    }

    #[test]
    fn lee_moore_equals_grid_astar_on_many_cases() {
        let plane = one_block();
        for (a, b) in [
            (Point::new(0, 0), Point::new(60, 60)),
            (Point::new(0, 60), Point::new(60, 0)),
            (Point::new(10, 0), Point::new(50, 60)),
            (Point::new(0, 25), Point::new(60, 35)),
        ] {
            let lm = lee_moore(&plane, a, b, 1).unwrap();
            let ga = grid_astar(&plane, a, b, 1).unwrap();
            assert_eq!(lm.length, ga.length, "{a} -> {b}");
        }
    }
}
