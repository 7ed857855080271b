//! The routing search space: gridless successor generation.
//!
//! This is the paper's §"Generating Successors" made precise. From a state
//! the search casts a ray in each direction (except straight back). Along
//! the ray it generates a node at:
//!
//! 1. every **goal alignment** — a coordinate sharing an axis value with a
//!    goal ("extends any path as far toward the goal as is feasible"),
//! 2. every **anchored corner coordinate** — the corner coordinates of
//!    obstacles lying to one side of the ray, at which turning toward the
//!    obstacle can begin to hug it ("hugs cells as they are encountered"),
//! 3. the **ray stop** itself — the collision point on the blocking cell's
//!    face, or the plane boundary.
//!
//! ## Why this is complete and optimal
//!
//! Any minimal rectilinear path among rectangles can be *pulled taut*:
//! each maximal straight segment slides sideways (length is preserved)
//! until it either (a) becomes flush with an obstacle edge, (b) aligns
//! with a terminal coordinate, or (c) merges with an adjacent segment.
//! In a taut path every bend therefore lies at the intersection of a
//! coordinate from {terminal coordinates} ∪ {obstacle edge coordinates}
//! on each axis, with the anchoring obstacle on the side the path turns
//! toward. Those are exactly the stops generated above, so the implicit
//! graph contains a minimal path and A\* with the Manhattan lower bound
//! (admissible, per the paper's argument) finds one. The experiment suite
//! cross-validates this against the Lee–Moore router on thousands of
//! random instances (experiment E3).
//!
//! ## How A\* walks the rays, and why it is exact
//!
//! A\* does not take the successor list. [`RoutingSpace::runs`] casts
//! one ray per direction (except straight back), named by the arrived
//! state at its start, `(p, d)`, and paying the bend's ε as its departure;
//! [`SearchSpace::stops`] lists the ray's stops from the same `ray_stops`
//! as the successor list, and [`SearchSpace::leg`] prices the wire and
//! surcharge to each. The engine (`gcr_search::astar_in`, whose doc has
//! the engine side of the proof) keeps one cursor per ray on OPEN,
//! prices a stop only when the cursor reaches it, and creates a node only
//! for an offer it pops that improves its state's label. With the goal
//! bound U (the smaller of the search's incumbent, if any, and the least
//! f̂ of a goal offer priced so far), it leaves a stop `c` of a ray from
//! `p` in direction `d` out when
//!
//! * (a) the arrived state `(c, d)` holds a label no worse than the offer
//!   ĝ + ε + cost(p → c) (or than its floor, the offer without the
//!   surcharge), tested at `p` itself before the ray is cast, at each
//!   stop as the ray is cast while U exists, and at a popped stop, where
//!   the ray's later stops go with it; or
//! * (b) the offer plus ĥ(c) exceeds U.
//!
//! At `p` itself, (a) skips a ray an earlier expansion already swept at no
//! greater cost; the straight-ahead ray is the case where `(p, d)` is the
//! expanding state itself, so an arrived state never casts it. Nothing
//! left out changes an expansion:
//!
//! 1. **f̂ never falls along a ray in travel order**, and no stop's f̂ is
//!    below ĝ + ε + ĥ(p). Each step adds at least its length to ĝ: wire
//!    plus a non-negative surcharge, with the ε paid once at departure.
//!    ĥ, the Manhattan distance to the nearest goal, falls by at most that
//!    length. So after (b), every later stop also exceeds U; and a ray
//!    whose ε bend is deferred until OPEN reaches ĝ + ε + ĥ(p) is cast
//!    before any of its stops can pop. Along a ray ĝ strictly rises, so a run of
//!    equal-f̂ stops pops far to near, as eager A\* pops them.
//! 2. **An entry above U is never popped.** U is the cost of a path of
//!    this graph from a source to a goal, so U ≥ C\*, the minimal cost.
//!    A priced goal offer is such a path. So is the incumbent: a previous
//!    connection that [`RoutingSpace::replay`] accepted, since each of its
//!    legs is an edge the generator would emit (the leg's end is a stop
//!    of the ray, found by the same `ray_stops`) and its cost is the sum
//!    of those edges' prices from a source's initial cost. Until a goal
//!    pops, OPEN holds an offer of a minimal path with its minimal ĝ,
//!    whose f̂ ≤ C\* because ĥ is admissible; A\* pops the smallest f̂, so
//!    it pops no entry above C\* ≤ U, and it stops at a goal popped at
//!    C\*. This holds from the first expansion, before any goal offer is
//!    priced, which is why an incumbent may seed U.
//! 3. **Invariant.** A label at an arrived state `(c, d)` was set when an
//!    offer from a ray in direction `d` through `c` popped (sources carry
//!    no arrival direction). That ray offers every stop `c′` ahead of `c`
//!    that the ray from `c` would, at no more than the label plus
//!    cost(c → c′) (corner stops and goal alignments depend only on the
//!    ray's line, direction and range, the ray stop is the same first
//!    blocker, and wire and surcharge add up along a ray while going
//!    straight pays no ε). Its offer there is still on OPEN, has popped
//!    (a label no worse), or was itself left out by (a) at a later stop,
//!    whose own label covers `c′`, or by (b).
//! 4. **Conclusion.** After (a) at `c`, each later offer of our ray has an
//!    offer for the same state that pops first: a lower ĝ, or an equal ĝ
//!    from a ray numbered earlier (A\* numbers a ray when its state is
//!    expanded, and breaks ties in that order). Had our ray been numbered
//!    earlier, the label's offer, with the same state and ĝ, would have
//!    popped after ours; a deferred ray is cast ahead of every offer of
//!    equal f̂, so a label set after it was queued is strictly lower. So
//!    our offer would have
//!    been dropped when it popped, or is above U (step 2), and the same
//!    offers pop in the same order: expansion order, `expanded`, paths,
//!    costs and routes are those of eager A\*, with or without an
//!    incumbent. `reopened` is 0 on every routing search, because ĥ is
//!    consistent (a surcharge only adds to an edge).
//!
//! Nothing here asks whether the incumbent is still a good route, or
//! whether the plane changed since it was found: the replay checks it
//! against the current plane, tree and goals edge by edge, and a
//! polyline that is not a path is simply not an incumbent. A search that
//! trips its expansion cap trips it at the same expansion either way.
//!
//! The Hanan-walk ablation steps only to the next grid line, so its rays
//! are not maximal, the invariant's base case fails, and (a) never
//! applies: its rays are cast whole, never deferred. Nor does (a) apply
//! in a space handed a source that carries an arrival direction, whose
//! label no ray set. [`SearchSpace::successors`] lists every successor;
//! the blind engines and `exhaustive` read it, so they stay independent
//! oracles.

use std::borrow::Cow;
use std::cell::RefCell;

use gcr_geom::{Coord, Dir, PlaneIndex, Point, Polyline};
use gcr_search::{LexCost, PathCost, Runs, SearchSpace};

use crate::{bend_is_anchored, EdgeCoster, GoalSet, RouteState, RoutedPath};

/// Per-expansion staging buffers of the successor generator, reused for
/// every expansion of a search instead of reallocated (the generator
/// runs once per node popped from OPEN — with fresh `Vec`s it was the
/// single largest allocation site of the whole router). Interior
/// mutability because [`SearchSpace::successors`] takes `&self`; the
/// search is single-threaded per connection, so the `RefCell` is never
/// contended.
#[derive(Debug, Clone, Default)]
struct SuccessorBufs {
    /// One ray's stop coordinates, in travel order.
    stops: Vec<Coord>,
    /// One ray's goal alignments, unsorted.
    goal_stops: Vec<Coord>,
}

/// The gridless routing problem fed to the generic A\* engine.
#[derive(Debug, Clone)]
pub struct RoutingSpace<'a> {
    plane: &'a dyn PlaneIndex,
    goals: &'a GoalSet,
    /// Borrowed on the hot path (the net driver stages seeds in its
    /// [`SearchScratch`](crate::SearchScratch)); owned for convenience
    /// callers that pass a `Vec`.
    sources: Cow<'a, [(RouteState, LexCost)]>,
    coster: EdgeCoster<'a>,
    /// When set, successors step only to the adjacent Hanan grid line
    /// (per-axis sorted coordinate lists, obstacle edges ∪ goal
    /// alignments) instead of jumping along full rays — the E9 ablation.
    hanan: Option<(Vec<Coord>, Vec<Coord>)>,
    /// No source carries an arrival direction, so every arrived state's
    /// label was set by a ray (step 3 of the module doc's proof).
    unarrived_sources: bool,
    bufs: RefCell<SuccessorBufs>,
}

impl<'a> RoutingSpace<'a> {
    /// Builds a routing space over `plane` from explicit sources toward
    /// `goals`, priced by `coster`.
    #[must_use]
    pub fn new(
        plane: &'a dyn PlaneIndex,
        goals: &'a GoalSet,
        sources: impl Into<Cow<'a, [(RouteState, LexCost)]>>,
        coster: EdgeCoster<'a>,
    ) -> RoutingSpace<'a> {
        let sources = sources.into();
        RoutingSpace {
            plane,
            goals,
            unarrived_sources: sources.iter().all(|(s, _)| s.arrival.is_none()),
            sources,
            coster,
            hanan: None,
            bufs: RefCell::new(SuccessorBufs::default()),
        }
    }

    /// Switches successor generation to the Hanan-walk ablation (single
    /// steps between adjacent Hanan grid lines; see
    /// [`crate::RouterConfig::hanan_walk`]).
    #[must_use]
    pub fn with_hanan_walk(mut self, on: bool) -> RoutingSpace<'a> {
        self.hanan = on.then(|| {
            let mut xs = self.plane.corner_coords(gcr_geom::Axis::X);
            let mut ys = self.plane.corner_coords(gcr_geom::Axis::Y);
            // Goal alignments must be grid lines too, or goals off the
            // obstacle grid would be unreachable.
            let mut add = |p: gcr_geom::Point| {
                xs.push(p.x);
                ys.push(p.y);
            };
            for g in self.goals.points() {
                add(*g);
            }
            for (s, _) in self.sources.iter() {
                add(s.point);
            }
            xs.sort_unstable();
            xs.dedup();
            ys.sort_unstable();
            ys.dedup();
            (xs, ys)
        });
        self
    }

    /// The plane being routed over.
    #[must_use]
    pub fn plane(&self) -> &'a dyn PlaneIndex {
        self.plane
    }

    /// Fills `bufs.stops` with the coordinates, in travel order, at which
    /// the ray from `p` in `dir` stops: its goal alignments, anchored
    /// corner coordinates and the ray stop, or under the Hanan walk only
    /// the adjacent grid line. Empty when the ray has no length. The one
    /// definition of a ray's stops, shared by the successor generator and
    /// [`RoutingSpace::replay`].
    fn ray_stops(&self, p: Point, dir: Dir, bufs: &mut SuccessorBufs) {
        let SuccessorBufs { stops, goal_stops } = bufs;
        stops.clear();
        let hit = self.plane.ray_hit(p, dir);
        if hit.distance == 0 {
            return;
        }
        if let Some((xs, ys)) = &self.hanan {
            // Ablation: step only to the adjacent Hanan grid line in
            // this direction (clipped by the ray stop).
            let coords = match dir.axis() {
                gcr_geom::Axis::X => xs,
                gcr_geom::Axis::Y => ys,
            };
            let u0 = p.coord(dir.axis());
            let next = if dir.sign() > 0 {
                let i = coords.partition_point(|&c| c <= u0);
                coords.get(i).copied().filter(|&c| c <= hit.stop)
            } else {
                let i = coords.partition_point(|&c| c < u0);
                i.checked_sub(1)
                    .and_then(|i| coords.get(i))
                    .copied()
                    .filter(|&c| c >= hit.stop)
            };
            stops.extend(next);
            return;
        }
        // Corner stops arrive distinct and in travel order, and the ray
        // stop lies at or beyond all of them, so one pass builds a
        // strictly monotone travel-order list.
        self.plane.corner_candidates_into(p, dir, hit.stop, stops);
        if stops.last() != Some(&hit.stop) {
            stops.push(hit.stop);
        }
        // The few goal alignments merge in by binary search.
        goal_stops.clear();
        self.goals
            .stops_along_ray_into(p, dir, hit.stop, goal_stops);
        let positive = dir.sign() > 0;
        for &c in goal_stops.iter() {
            let travel = |&s: &Coord| if positive { s.cmp(&c) } else { c.cmp(&s) };
            if let Err(i) = stops.binary_search_by(travel) {
                stops.insert(i, c);
            }
        }
    }

    /// Prices `polyline` as a path of this space's graph, or returns
    /// `None` when it is not one. It is one when
    ///
    /// * it starts on a source without an arrival direction,
    /// * each vertex is a stop of the ray from the vertex before it, in a
    ///   direction that does not reverse the arrival, and
    /// * it ends on a goal.
    ///
    /// The cost is the source's initial cost plus [`EdgeCoster::edge`]
    /// over the legs, the price of the same edges in the search. A
    /// committed connection replayed in the space that found it prices
    /// at exactly its cost, because wire, surcharge and ε add up along a
    /// ray and a straight leg through several stops is itself one edge.
    #[must_use]
    pub(crate) fn replay(&self, polyline: &Polyline) -> Option<LexCost> {
        let (&start, legs) = polyline.points().split_first()?;
        let mut state = RouteState::source(start);
        let mut cost = self
            .sources
            .iter()
            .filter(|(s, _)| *s == state)
            .map(|&(_, c)| c)
            .min()?;
        let mut bufs = self.bufs.borrow_mut();
        for &to in legs {
            let p = state.point;
            let dir = p.dir_toward(to)?;
            if state.reverses_into(dir) {
                return None;
            }
            self.ray_stops(p, dir, &mut bufs);
            if !bufs.stops.contains(&to.coord(dir.axis())) {
                return None;
            }
            let anchored = state.arrival.is_some() && bend_is_anchored(self.plane, p);
            cost = cost.plus(self.coster.edge(&state, to, dir, anchored));
            state = RouteState::arrived(to, dir);
        }
        self.is_goal(&state).then_some(cost)
    }

    /// The incumbent bound of a search that reroutes a connection: the
    /// cheapest of `previous` that [`RoutingSpace::replay`] accepts, or
    /// `None` when none is a path of this space.
    #[must_use]
    pub(crate) fn incumbent(&self, previous: &[RoutedPath]) -> Option<LexCost> {
        previous
            .iter()
            .filter_map(|r| self.replay(&r.polyline))
            .min()
    }
}

impl SearchSpace for RoutingSpace<'_> {
    type State = RouteState;
    type Cost = LexCost;

    fn start_states(&self, out: &mut Vec<(RouteState, LexCost)>) {
        out.clear();
        out.extend_from_slice(&self.sources);
    }

    fn successors(&self, state: &RouteState, out: &mut Vec<(RouteState, LexCost)>) {
        let p = state.point;
        // The ε probe depends only on the popped state: once per
        // expansion, not once per bending successor. A source never
        // bends, so it skips the probe.
        let anchored = state.arrival.is_some() && bend_is_anchored(self.plane, p);
        // One borrow per expansion, buffers cleared per ray — no
        // allocation once the high-water capacity is reached.
        let mut bufs = self.bufs.borrow_mut();
        for dir in Dir::ALL {
            if state.reverses_into(dir) {
                continue;
            }
            self.ray_stops(p, dir, &mut bufs);
            let axis = dir.axis();
            let first = out.len();
            out.extend(bufs.stops.iter().map(|&c| {
                let to = p.with_coord(axis, c);
                debug_assert_ne!(to, p, "zero-length successor");
                (
                    RouteState::arrived(to, dir),
                    self.coster.edge(state, to, dir, anchored),
                )
            }));
            // Ascending stop order is the successor order.
            if dir.sign() < 0 {
                out[first..].reverse();
            }
        }
    }

    fn is_goal(&self, state: &RouteState) -> bool {
        self.goals.contains(state.point)
    }

    fn heuristic(&self, state: &RouteState) -> LexCost {
        LexCost::primary(self.goals.distance_to(state.point))
    }

    fn runs(&self, state: &RouteState, out: &mut Runs<RouteState, LexCost>) {
        let p = state.point;
        let anchored = state.arrival.is_some() && bend_is_anchored(self.plane, p);
        // Rule (a) of the module doc holds for maximal rays only.
        let maximal = self.hanan.is_none() && self.unarrived_sources;
        for dir in Dir::ALL {
            if !state.reverses_into(dir) {
                let departure = self.coster.departure(state, dir, anchored);
                out.ray(RouteState::arrived(p, dir), departure, maximal);
            }
        }
    }

    fn stops(
        &self,
        from: &RouteState,
        origin: &RouteState,
        mut each: impl FnMut(RouteState) -> bool,
    ) {
        let (p, dir) = (
            from.point,
            origin.arrival.expect("a ray is named by its direction"),
        );
        let mut bufs = self.bufs.borrow_mut();
        self.ray_stops(p, dir, &mut bufs);
        let axis = dir.axis();
        for &c in &bufs.stops {
            if !each(RouteState::arrived(p.with_coord(axis, c), dir)) {
                break;
            }
        }
    }

    fn leg(&self, from: &RouteState, to: &RouteState) -> LexCost {
        self.coster.leg(from.point, to.point)
    }

    fn leg_floor(&self, from: &RouteState, to: &RouteState) -> LexCost {
        LexCost::primary(from.point.manhattan(to.point))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouterConfig;
    use gcr_geom::{Dir, Plane, Point, Rect, ShardedPlane};
    use gcr_search::{PathCost, SearchSpace};

    fn one_block() -> Plane {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        p.add_obstacle(Rect::new(30, 30, 70, 70).unwrap());
        p
    }

    fn space_over<'a>(
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
    fn open_plane_successors_align_with_goal() {
        let plane = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        let goals = GoalSet::from_point(Point::new(40, 60));
        let config = RouterConfig::default();
        let space = space_over(&plane, &goals, &config, Point::new(10, 10));
        let mut succ = Vec::new();
        space.successors(&RouteState::source(Point::new(10, 10)), &mut succ);
        // East: goal alignment at x=40 and the boundary at x=100.
        assert!(succ
            .iter()
            .any(|(s, _)| s.point == Point::new(40, 10) && s.arrival == Some(Dir::East)));
        // North: goal alignment at y=60 and the boundary at y=100.
        assert!(succ
            .iter()
            .any(|(s, _)| s.point == Point::new(10, 60) && s.arrival == Some(Dir::North)));
        // Boundary stops exist too.
        assert!(succ.iter().any(|(s, _)| s.point == Point::new(100, 10)));
        assert!(succ.iter().any(|(s, _)| s.point == Point::new(10, 0)));
    }

    #[test]
    fn collision_generates_hug_point() {
        let plane = one_block();
        let goals = GoalSet::from_point(Point::new(90, 50));
        let config = RouterConfig::default();
        let space = space_over(&plane, &goals, &config, Point::new(10, 50));
        let mut succ = Vec::new();
        space.successors(&RouteState::source(Point::new(10, 50)), &mut succ);
        // The eastward ray must stop exactly on the block's west face.
        assert!(succ
            .iter()
            .any(|(s, _)| s.point == Point::new(30, 50) && s.arrival == Some(Dir::East)));
        // Nothing may penetrate the block.
        assert!(succ
            .iter()
            .all(|(s, _)| !(s.point.x > 30 && s.point.x < 70 && s.point.y > 30 && s.point.y < 70)));
    }

    #[test]
    fn corner_candidates_appear_on_off_axis_rays() {
        let plane = one_block();
        let goals = GoalSet::from_point(Point::new(90, 90));
        let config = RouterConfig::default();
        // From below the block, heading east along y=10: the block's corner
        // xs (30 and 70) are anchored candidates.
        let space = space_over(&plane, &goals, &config, Point::new(0, 10));
        let mut succ = Vec::new();
        space.successors(&RouteState::source(Point::new(0, 10)), &mut succ);
        assert!(succ.iter().any(|(s, _)| s.point == Point::new(30, 10)));
        assert!(succ.iter().any(|(s, _)| s.point == Point::new(70, 10)));
    }

    #[test]
    fn reverse_direction_is_skipped() {
        let plane = one_block();
        let goals = GoalSet::from_point(Point::new(90, 90));
        let config = RouterConfig::default();
        let space = space_over(&plane, &goals, &config, Point::new(10, 10));
        let state = RouteState::arrived(Point::new(50, 10), Dir::East);
        let mut succ = Vec::new();
        space.successors(&state, &mut succ);
        assert!(
            succ.iter().all(|(s, _)| s.arrival != Some(Dir::West)),
            "westward successor would reverse the arrival direction"
        );
    }

    #[test]
    fn goal_test_and_heuristic() {
        let plane = one_block();
        let goals = GoalSet::from_point(Point::new(90, 50));
        let config = RouterConfig::default();
        let space = space_over(&plane, &goals, &config, Point::new(10, 50));
        assert!(space.is_goal(&RouteState::arrived(Point::new(90, 50), Dir::East)));
        assert!(!space.is_goal(&RouteState::source(Point::new(10, 50))));
        assert_eq!(
            space.heuristic(&RouteState::source(Point::new(10, 50))),
            LexCost::primary(80)
        );
    }

    /// The reference successor list, built without the generator's
    /// travel-order merge: the ray's corner coordinates, its goal
    /// alignments and the ray stop, sorted and deduplicated, each edge
    /// priced with its own `bend_is_anchored` probe.
    fn reference_successors(
        plane: &dyn PlaneIndex,
        goals: &GoalSet,
        config: &RouterConfig,
        state: &RouteState,
    ) -> Vec<(RouteState, LexCost)> {
        let p = state.point;
        let mut out = Vec::new();
        for dir in Dir::ALL {
            if state.reverses_into(dir) {
                continue;
            }
            let hit = plane.ray_hit(p, dir);
            if hit.distance == 0 {
                continue;
            }
            let mut stops = Vec::new();
            plane.corner_candidates_into(p, dir, hit.stop, &mut stops);
            goals.stops_along_ray_into(p, dir, hit.stop, &mut stops);
            stops.push(hit.stop);
            stops.sort_unstable();
            stops.dedup();
            for c in stops {
                let to = p.with_coord(dir.axis(), c);
                let eps =
                    config.corner_penalty && state.bends_into(dir) && !bend_is_anchored(plane, p);
                out.push((
                    RouteState::arrived(to, dir),
                    LexCost::new(p.manhattan(to), i64::from(eps)),
                ));
            }
        }
        out
    }

    fn seeded_plane(case: u64) -> Plane {
        let mut state = case.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |m: i64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as i64).rem_euclid(m)
        };
        let mut plane = Plane::new(Rect::new(0, 0, 200, 200).unwrap());
        for _ in 0..14 {
            let (x, y) = (next(180), next(180));
            let (w, h) = (next(18) + 1, next(18) + 1);
            plane.add_obstacle(Rect::new(x, y, x + w, y + h).unwrap());
        }
        plane
    }

    /// A multi-pin goal set whose points share coordinates with `flat`'s
    /// obstacle corners and ray stops.
    fn lockdown_goals(flat: &Plane) -> GoalSet {
        let (a, b) = (flat.rects()[0].0, flat.rects()[1].0);
        let mut goals = GoalSet::new();
        // Points on obstacle corners: goal alignments that coincide
        // with corner stops (and with ray stops at those faces).
        goals.add_point(Point::new(a.xmax(), a.ymax()));
        goals.add_point(Point::new(b.xmin(), b.ymin()));
        // A point on the plane boundary: coincides with ray stops.
        goals.add_point(Point::new(200, b.ymax()));
        goals
    }

    /// Every source and arrived state at the free corner-grid points of
    /// `plane`.
    fn corner_grid_states(plane: &dyn PlaneIndex) -> Vec<RouteState> {
        let xs = plane.corner_coords(gcr_geom::Axis::X);
        let ys = plane.corner_coords(gcr_geom::Axis::Y);
        let mut states = Vec::new();
        for &x in &xs {
            for &y in &ys {
                let p = Point::new(x, y);
                if plane.point_free(p) {
                    states.push(RouteState::source(p));
                    states.extend(Dir::ALL.map(|d| RouteState::arrived(p, d)));
                }
            }
        }
        states
    }

    /// Successor-order lockdown. Successor order is the A* `seq`
    /// tie-break, so on seeded flat and sharded planes the generator must
    /// match [`reference_successors`] exactly — same states, same order,
    /// same length and ε — from source and arrived states, along every
    /// ray direction, against a multi-pin goal set whose points share
    /// coordinates with obstacle corners and ray stops.
    #[test]
    fn successors_match_the_sorted_reference_exactly() {
        let config = RouterConfig::default();
        let (mut compared, mut charged) = (0usize, 0usize);
        for case in 0..6u64 {
            let flat = seeded_plane(case);
            let sharded = ShardedPlane::new(flat.clone());
            let goals = lockdown_goals(&flat);
            for plane in [&flat as &dyn PlaneIndex, &sharded] {
                let space = RoutingSpace::new(
                    plane,
                    &goals,
                    vec![(RouteState::source(Point::new(0, 0)), LexCost::zero())],
                    EdgeCoster::new(&config),
                );
                let mut succ = Vec::new();
                for state in corner_grid_states(plane) {
                    succ.clear();
                    space.successors(&state, &mut succ);
                    let want = reference_successors(plane, &goals, &config, &state);
                    assert_eq!(succ, want, "case {case} {plane:?}: {state}");
                    compared += succ.len();
                    charged += succ.iter().filter(|(_, c)| c.penalty > 0).count();
                }
            }
        }
        assert!(compared > 10_000, "the sweep must compare real work");
        assert!(charged > 0, "the sweep must cover ε-charged bends");
    }

    /// A ray's stops, priced at its departure plus each stop's leg, are
    /// exactly the successors along that ray, in travel order, and the
    /// leg floor never exceeds the leg, with and without a congestion
    /// surcharge, on flat and sharded planes.
    #[test]
    fn rays_list_and_price_exactly_the_successors() {
        use crate::congestion::{find_passages, CongestionPenalty};
        let config = RouterConfig::default();
        let (mut compared, mut surcharged) = (0usize, 0usize);
        for case in 0..4u64 {
            let flat = seeded_plane(case);
            let sharded = ShardedPlane::new(flat.clone());
            let goals = lockdown_goals(&flat);
            let penalty = CongestionPenalty::from_weighted_regions(
                find_passages(&flat)
                    .iter()
                    .map(|p| (p.rect, p.corridor_axis, 3))
                    .collect(),
            );
            for plane in [&flat as &dyn PlaneIndex, &sharded] {
                for coster in [
                    EdgeCoster::new(&config),
                    EdgeCoster::with_congestion(&config, &penalty),
                ] {
                    let source = vec![(RouteState::source(Point::new(0, 0)), LexCost::zero())];
                    let space = RoutingSpace::new(plane, &goals, source, coster);
                    let mut succ = Vec::new();
                    for state in corner_grid_states(plane) {
                        succ.clear();
                        space.successors(&state, &mut succ);
                        let anchored =
                            state.arrival.is_some() && bend_is_anchored(plane, state.point);
                        for d in Dir::ALL {
                            let mut want: Vec<_> = succ
                                .iter()
                                .filter(|(t, _)| t.arrival == Some(d))
                                .copied()
                                .collect();
                            if d.sign() < 0 {
                                want.reverse();
                            }
                            let mut ray = Vec::new();
                            if !state.reverses_into(d) {
                                let origin = RouteState::arrived(state.point, d);
                                space.stops(&state, &origin, |t| {
                                    ray.push(t);
                                    true
                                });
                            }
                            let departure = coster.departure(&state, d, anchored);
                            let priced: Vec<_> = ray
                                .iter()
                                .map(|t| (*t, departure + space.leg(&state, t)))
                                .collect();
                            assert_eq!(priced, want, "case {case} {plane:?}: {state} {d}");
                            for t in &ray {
                                let (floor, leg) =
                                    (space.leg_floor(&state, t), space.leg(&state, t));
                                assert!(floor <= leg, "case {case}: {state} to {t}");
                                surcharged += usize::from(floor < leg);
                            }
                            compared += ray.len();
                        }
                    }
                }
            }
        }
        assert!(compared > 10_000, "the sweep must compare real work");
        assert!(surcharged > 0, "the sweep must price surcharges");
    }

    /// A polyline from points.
    fn line(points: &[(i64, i64)]) -> Polyline {
        Polyline::new(points.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    /// The replay accepts exactly the paths of the search's graph. A
    /// polyline of real stops from a source to a goal prices at what the
    /// search pays for it; one that bends off a stop, starts off the
    /// sources, ends off the goals or crosses a cell is rejected, each by
    /// its own rule alone (the other three hold for it).
    #[test]
    fn replay_accepts_only_paths_of_the_search_graph() {
        let plane = one_block();
        let (from, to) = (Point::new(10, 50), Point::new(90, 50));
        let goals = GoalSet::from_point(to);
        let config = RouterConfig::default();
        let space = space_over(&plane, &goals, &config, from);
        let best = crate::route_two_points(&plane, from, to, &config).unwrap();
        assert_eq!(space.replay(&best.polyline), Some(best.cost));
        // Over the block, bending twice in the open: 120 wire, 2 ε.
        let over = line(&[(10, 50), (10, 70), (90, 70), (90, 50)]);
        assert_eq!(space.replay(&over), Some(LexCost::new(120, 2)));
        let off_stop = line(&[(10, 50), (10, 75), (90, 75), (90, 50)]);
        assert!(
            plane.polyline_free(&off_stop),
            "legal wire, no stop at y = 75"
        );
        let cases = [
            ("bends off a stop", off_stop),
            (
                "starts off the sources",
                line(&[(10, 70), (90, 70), (90, 50)]),
            ),
            ("ends off the goals", line(&[(10, 50), (10, 70), (90, 70)])),
            ("crosses a cell", line(&[(10, 50), (90, 50)])),
            ("reverses", line(&[(10, 50), (10, 70), (10, 60), (90, 60)])),
        ];
        for (what, bad) in &cases {
            assert_eq!(space.replay(bad), None, "{what}");
        }
        // The incumbent is the cheapest previous connection that replays.
        let previous: Vec<RoutedPath> = [&cases[0].1, &over, &best.polyline]
            .into_iter()
            .map(|polyline| RoutedPath {
                polyline: polyline.clone(),
                cost: LexCost::zero(),
                stats: gcr_search::SearchStats::default(),
            })
            .collect();
        assert_eq!(space.incumbent(&previous), Some(best.cost));
        assert_eq!(space.incumbent(&previous[..2]), Some(LexCost::new(120, 2)));
        assert_eq!(space.incumbent(&previous[..1]), None);
    }

    /// Walks a committed net's connections the way the net driver grew
    /// them and replays each in the search it came from, priced by
    /// `coster`: it must cost exactly its committed cost. Returns the
    /// connections whose cost carries a congestion surcharge.
    fn replay_committed(
        plane: &dyn PlaneIndex,
        layout: &gcr_layout::Layout,
        route: &crate::NetRoute,
        coster: EdgeCoster<'_>,
    ) -> usize {
        let terminals = layout.net(route.id).unwrap().terminals();
        let mut tree = crate::RouteTree::new();
        for pin in terminals[0].pins() {
            tree.add_point(pin.position);
        }
        let mut remaining: Vec<usize> = (1..terminals.len()).collect();
        let mut surcharged = 0;
        for conn in &route.connections {
            let mut goals = GoalSet::new();
            for &t in &remaining {
                for pin in terminals[t].pins() {
                    goals.add_point(pin.position);
                }
            }
            let mut seeds = Vec::new();
            tree.seeds_into(plane, &goals, &mut Vec::new(), &mut seeds);
            let space = RoutingSpace::new(plane, &goals, seeds, coster);
            let what = format!("net {}: {}", route.net, conn.polyline);
            assert_eq!(space.replay(&conn.polyline), Some(conn.cost), "{what}");
            surcharged += usize::from(conn.cost.primary > conn.polyline.length());
            let reached = conn.polyline.end();
            let k = remaining
                .iter()
                .position(|&t| terminals[t].pins().iter().any(|p| p.position == reached))
                .expect("a connection ends on a goal pin");
            tree.add_polyline(&conn.polyline);
            for pin in terminals[remaining[k]].pins() {
                tree.add_point(pin.position);
            }
            remaining.remove(k);
        }
        surcharged
    }

    /// In an unchanged session every committed connection replays at
    /// exactly its [`RoutedPath::cost`], on both plane indexes: after the
    /// plain first pass of a congested die, and after a surcharged
    /// negotiation round, priced under that round's penalty.
    #[test]
    fn committed_connections_replay_at_their_exact_cost() {
        use crate::{Budget, NegotiationCost, PlaneIndexKind, RoutingSession};
        let mut config = RouterConfig::default();
        config
            .wire_pitch(2)
            .congestion_weight(20)
            .max_expansions(Some(1200));
        let (mut replayed, mut surcharged) = (0, 0);
        for case in 0..3u64 {
            let mut params = gcr_workload::generator::GeneratorParams::with_nets(48, case);
            params.utilization = 0.85;
            let layout = gcr_workload::generator::generate(&params);
            for index in [PlaneIndexKind::Flat, PlaneIndexKind::Sharded] {
                let mut session = RoutingSession::builder(layout.clone())
                    .config(config.clone())
                    .index(index)
                    .build();
                session.route_all();
                let plain = EdgeCoster::new(&config);
                for id in layout.net_ids() {
                    if let Some(route) = session.route(id) {
                        replay_committed(session.plane(), &layout, route, plain);
                        replayed += route.connections.len();
                    }
                }
                let analysis = session.congestion();
                let mut cost = NegotiationCost::new(analysis.passages.len());
                cost.absorb(&analysis);
                let penalty = cost.penalty(&analysis);
                let affected = analysis.affected_nets();
                for &idx in &affected {
                    session.set_dirty_slot(idx);
                }
                session
                    .reroute(Some(&penalty), &Budget::unlimited())
                    .unwrap();
                let priced = EdgeCoster::with_congestion(&config, &penalty);
                for id in layout.net_ids() {
                    if let Some(route) = session.route(id) {
                        let coster = if affected.contains(&id.index()) {
                            priced
                        } else {
                            plain
                        };
                        surcharged += replay_committed(session.plane(), &layout, route, coster);
                        replayed += route.connections.len();
                    }
                }
            }
        }
        assert!(
            replayed > 500,
            "the sweep must replay real work: {replayed}"
        );
        assert!(surcharged > 10, "surcharges must be priced: {surcharged}");
    }

    #[test]
    fn edge_costs_are_distances() {
        let plane = one_block();
        let goals = GoalSet::from_point(Point::new(90, 50));
        let config = RouterConfig::default();
        let space = space_over(&plane, &goals, &config, Point::new(10, 50));
        let mut succ = Vec::new();
        space.successors(&RouteState::source(Point::new(10, 50)), &mut succ);
        for (s, c) in succ {
            assert_eq!(c.primary, Point::new(10, 50).manhattan(s.point));
        }
    }
}
