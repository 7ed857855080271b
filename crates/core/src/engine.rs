//! The [`RoutingEngine`] abstraction: one contract for every routing
//! backend.
//!
//! The paper's central structural claim — nets are routed independently,
//! "the only obstacles are the cells" — means a backend only ever has to
//! answer one question: *connect this partial tree to the nearest of
//! these goals over this obstacle plane*. This module pins that question
//! down as a trait so the gridless A\* router (the paper's
//! contribution), the Lee–Moore / grid-A\* baseline and the Hightower
//! line-probe baseline are interchangeable behind
//! [`RoutingSession`](crate::RoutingSession), and future engines (for
//! example a hierarchical one) plug in without touching callers.
//!
//! Engines advertise [`EngineCaps`] so drivers can reason about what a
//! result means: a complete engine failing to connect proves
//! unreachability; an incomplete one (Hightower) only reports that its
//! probes gave up. Costs are comparable across engines through
//! [`RoutedPath::cost`]: `primary` is wire length (plus congestion
//! surcharges for engines that price them) and the ε component is only
//! produced by engines that implement the paper's inverted-corner
//! penalty.

use gcr_geom::{PlaneIndex, Point};
use gcr_search::{LexCost, SearchStats};

use crate::{
    route_from_tree, EdgeCoster, GoalSet, RouteError, RouteTree, RoutedPath, RouterConfig,
    SearchScratch,
};

/// What a routing backend promises about its results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCaps {
    /// Short stable identifier (used in reports and benchmarks).
    pub name: &'static str,
    /// A failure proves no legal connection exists (Lee–Moore property).
    pub complete: bool,
    /// Successful connections have minimal primary cost for this engine's
    /// path universe.
    pub optimal: bool,
    /// The engine prices [`EdgeCoster`] congestion surcharges, so the
    /// two-pass congestion flow can steer it away from over-subscribed
    /// passages.
    pub supports_congestion: bool,
    /// New connections may start anywhere on the partial tree's
    /// *segments* (the paper's Steiner refinement), not only at its
    /// recorded points.
    pub segment_sources: bool,
}

/// A routing backend: connects a partial routing tree to a goal set over
/// an obstacle plane.
///
/// Implementations must be deterministic (identical inputs ⇒ identical
/// output, across runs and across threads) and pure per call — they see
/// the plane immutably and keep no mutable state between calls. Those two
/// properties are what make a session's parallel schedule byte-identical
/// to its serial one.
pub trait RoutingEngine: Sync {
    /// The engine's capability statement.
    fn capabilities(&self) -> EngineCaps;

    /// Routes one connection from `tree` (the net's connected set so far)
    /// to the nearest member of `goals`, pricing edges with `coster`
    /// where supported, using `scratch` for every reusable allocation
    /// (search arenas, staging buffers). An engine whose search polls a
    /// budget polls the scratch's.
    ///
    /// `previous` holds the connections of the net's last route when the
    /// net is being rerouted, and is empty otherwise. An engine may use
    /// them only to search less, never to return something else: the
    /// result must equal the one for `&[]` in polyline, cost, `expanded`
    /// and `reopened` (see [`SearchStats`] for what may fall). The
    /// gridless engine seeds its A\* goal bound with the cheapest of them
    /// that is still a path of its search; the grid and Hightower engines
    /// ignore them.
    ///
    /// The returned polyline starts on the tree and ends exactly on a
    /// goal point (the net driver uses the endpoint to identify which
    /// terminal was reached).
    ///
    /// Scratch state must never influence results: a call through a
    /// reused scratch is bit-identical to one through a fresh scratch
    /// (every arena resets on entry, every buffer is cleared before
    /// use). That, plus per-call purity over the immutable plane, is
    /// what keeps a session's parallel schedule byte-identical to its
    /// serial one.
    ///
    /// # Errors
    ///
    /// See [`RouteError`]. For incomplete engines an `Unreachable` error
    /// means "not found", not "proven absent" — check
    /// [`EngineCaps::complete`]. A search stopped by the scratch's budget
    /// is [`RouteError::Cancelled`].
    #[allow(clippy::too_many_arguments)]
    fn route_connection(
        &self,
        plane: &dyn PlaneIndex,
        tree: &RouteTree,
        goals: &GoalSet,
        coster: &EdgeCoster<'_>,
        config: &RouterConfig,
        previous: &[RoutedPath],
        scratch: &mut SearchScratch,
    ) -> Result<RoutedPath, RouteError>;
}

// Engines compose as references and trait objects, so callers can hold a
// heterogeneous fleet behind `Box<dyn RoutingEngine>`.
impl<E: RoutingEngine + ?Sized> RoutingEngine for &E {
    fn capabilities(&self) -> EngineCaps {
        (**self).capabilities()
    }

    fn route_connection(
        &self,
        plane: &dyn PlaneIndex,
        tree: &RouteTree,
        goals: &GoalSet,
        coster: &EdgeCoster<'_>,
        config: &RouterConfig,
        previous: &[RoutedPath],
        scratch: &mut SearchScratch,
    ) -> Result<RoutedPath, RouteError> {
        (**self).route_connection(plane, tree, goals, coster, config, previous, scratch)
    }
}

impl<E: RoutingEngine + ?Sized> RoutingEngine for Box<E> {
    fn capabilities(&self) -> EngineCaps {
        (**self).capabilities()
    }

    fn route_connection(
        &self,
        plane: &dyn PlaneIndex,
        tree: &RouteTree,
        goals: &GoalSet,
        coster: &EdgeCoster<'_>,
        config: &RouterConfig,
        previous: &[RoutedPath],
        scratch: &mut SearchScratch,
    ) -> Result<RoutedPath, RouteError> {
        (**self).route_connection(plane, tree, goals, coster, config, previous, scratch)
    }
}

// --------------------------------------------------------------- gridless

/// The paper's gridless A\* router as a [`RoutingEngine`] — complete,
/// optimal under the generalized cost function, congestion-aware, and
/// able to depart from any point of any tree segment.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridlessEngine;

impl RoutingEngine for GridlessEngine {
    fn capabilities(&self) -> EngineCaps {
        EngineCaps {
            name: "gridless-astar",
            complete: true,
            optimal: true,
            supports_congestion: true,
            segment_sources: true,
        }
    }

    fn route_connection(
        &self,
        plane: &dyn PlaneIndex,
        tree: &RouteTree,
        goals: &GoalSet,
        coster: &EdgeCoster<'_>,
        config: &RouterConfig,
        previous: &[RoutedPath],
        scratch: &mut SearchScratch,
    ) -> Result<RoutedPath, RouteError> {
        route_from_tree(plane, tree, goals, *coster, config, previous, scratch)
    }
}

// ------------------------------------------------------------------- grid

/// The Lee–Moore / grid-A\* baseline as a [`RoutingEngine`].
///
/// Tree segments are rasterized to their on-grid lattice points, so the
/// baseline participates in the same segment-connection Steiner growth as
/// the gridless engine (at pitch 1 every integer point of the tree is a
/// legal departure). Congestion surcharges are **not** priced — the grid
/// searcher optimizes pure wire length.
#[derive(Debug, Clone, Copy)]
pub struct GridEngine {
    /// Grid pitch (spacing between grid nodes). Pins and tree points must
    /// lie on the grid.
    pub pitch: i64,
    /// `true` → A\* with the Manhattan heuristic; `false` → the classic
    /// Lee–Moore wavefront (ĥ = 0). Identical costs, different effort.
    pub informed: bool,
}

impl Default for GridEngine {
    fn default() -> GridEngine {
        GridEngine {
            pitch: 1,
            informed: true,
        }
    }
}

impl GridEngine {
    /// The classic blind wavefront at pitch 1.
    #[must_use]
    pub fn lee_moore() -> GridEngine {
        GridEngine {
            pitch: 1,
            informed: false,
        }
    }

    /// Appends every lattice point of `seg` (stepping by pitch from the
    /// first grid-aligned coordinate; nothing if the perpendicular
    /// coordinate is off-grid).
    fn lattice_points(
        &self,
        plane: &dyn PlaneIndex,
        seg: &gcr_geom::Segment,
        out: &mut Vec<Point>,
    ) {
        let origin = plane.bounds();
        let axis = seg.axis();
        let base = seg.a();
        let perp_origin = match axis {
            gcr_geom::Axis::X => origin.ymin(),
            gcr_geom::Axis::Y => origin.xmin(),
        };
        if (base.coord(axis.perpendicular()) - perp_origin).rem_euclid(self.pitch) != 0 {
            return;
        }
        let axis_origin = match axis {
            gcr_geom::Axis::X => origin.xmin(),
            gcr_geom::Axis::Y => origin.ymin(),
        };
        let span = seg.span();
        let mut c = span.lo() + (axis_origin - span.lo()).rem_euclid(self.pitch);
        while c <= span.hi() {
            out.push(base.with_coord(axis, c));
            c += self.pitch;
        }
    }

    /// All grid-aligned points of the tree: recorded points, segment
    /// endpoints, and every lattice point along each segment. Clears and
    /// fills `out` (a reused staging buffer on the hot path).
    fn grid_sources_into(&self, plane: &dyn PlaneIndex, tree: &RouteTree, out: &mut Vec<Point>) {
        let origin = plane.bounds();
        let on_grid = |p: Point| {
            (p.x - origin.xmin()).rem_euclid(self.pitch) == 0
                && (p.y - origin.ymin()).rem_euclid(self.pitch) == 0
        };
        out.clear();
        out.extend(tree.points().iter().copied().filter(|&p| on_grid(p)));
        for seg in tree.segments() {
            self.lattice_points(plane, seg, out);
        }
        out.sort_unstable();
        out.dedup();
    }
}

impl RoutingEngine for GridEngine {
    fn capabilities(&self) -> EngineCaps {
        // At pitch 1 every integer point is a grid node, so the grid
        // path universe contains every rectilinear path and the engine
        // is complete and optimal over the plane. At coarser pitches
        // off-grid pins and off-grid corridors make both claims false.
        let exact = self.pitch == 1;
        EngineCaps {
            name: if self.informed {
                "grid-astar"
            } else {
                "lee-moore"
            },
            complete: exact,
            optimal: exact,
            supports_congestion: false,
            segment_sources: true,
        }
    }

    fn route_connection(
        &self,
        plane: &dyn PlaneIndex,
        tree: &RouteTree,
        goals: &GoalSet,
        _coster: &EdgeCoster<'_>,
        config: &RouterConfig,
        _previous: &[RoutedPath],
        scratch: &mut SearchScratch,
    ) -> Result<RoutedPath, RouteError> {
        let SearchScratch {
            grid: arena,
            sources,
            budget,
            ..
        } = scratch;
        self.grid_sources_into(plane, tree, sources);
        let route = gcr_grid::route_multi(
            plane,
            sources,
            goals.points(),
            self.pitch,
            self.informed,
            config.max_expansions,
            budget,
            arena,
        )
        .map_err(|e| match e {
            gcr_grid::GridRouteError::OffGrid { point }
            | gcr_grid::GridRouteError::InvalidEndpoint { point } => {
                RouteError::InvalidEndpoint { point }
            }
            gcr_grid::GridRouteError::Unreachable => RouteError::Unreachable {
                what: "grid connection".into(),
            },
            gcr_grid::GridRouteError::LimitExceeded { limit } => RouteError::LimitExceeded {
                what: "grid connection".into(),
                limit,
            },
            gcr_grid::GridRouteError::Cancelled { reason } => RouteError::Cancelled {
                what: "grid connection".into(),
                reason,
            },
            _ => RouteError::NothingToRoute {
                what: "grid connection".into(),
            },
        })?;
        Ok(RoutedPath {
            polyline: route.polyline,
            cost: LexCost::new(route.length, 0),
            stats: route.stats,
        })
    }
}

// -------------------------------------------------------------- hightower

/// The Hightower line-probe baseline as a [`RoutingEngine`] — fast and
/// *incomplete*: an `Unreachable` error only means its probes gave up.
#[derive(Debug, Clone)]
pub struct HightowerEngine {
    /// Probe budget per attempted endpoint pair.
    pub config: gcr_hightower::HightowerConfig,
    /// Cap on the number of (source, goal) pairs tried per connection.
    pub max_pairs: usize,
}

impl Default for HightowerEngine {
    fn default() -> HightowerEngine {
        HightowerEngine {
            config: gcr_hightower::HightowerConfig::default(),
            max_pairs: 64,
        }
    }
}

impl RoutingEngine for HightowerEngine {
    fn capabilities(&self) -> EngineCaps {
        EngineCaps {
            name: "hightower",
            complete: false,
            optimal: false,
            supports_congestion: false,
            segment_sources: false,
        }
    }

    fn route_connection(
        &self,
        plane: &dyn PlaneIndex,
        tree: &RouteTree,
        goals: &GoalSet,
        _coster: &EdgeCoster<'_>,
        config: &RouterConfig,
        _previous: &[RoutedPath],
        scratch: &mut SearchScratch,
    ) -> Result<RoutedPath, RouteError> {
        // Departure candidates: tree points, segment endpoints, and the
        // projection of every goal onto every segment (the cheap subset
        // of segment sources a pairwise prober can exploit). Staged in
        // the scratch's source buffer — the prober has no arena to
        // adopt, but candidate assembly is per-call and reusable all the
        // same.
        let sources = &mut scratch.sources;
        sources.clear();
        sources.extend_from_slice(tree.points());
        for seg in tree.segments() {
            sources.push(seg.a());
            sources.push(seg.b());
            for g in goals.points() {
                sources.push(seg.closest_point_to(*g));
            }
        }
        if sources.is_empty() || goals.is_empty() {
            return Err(RouteError::NothingToRoute {
                what: "line-probe connection".into(),
            });
        }
        // Honor the shared effort bound: probe lines are this engine's
        // expansion analogue, so `max_expansions` caps the per-pair line
        // budget. Hitting it surfaces as the prober's usual Exhausted →
        // Unreachable outcome (the engine is incomplete either way).
        let mut probe_config = self.config;
        if let Some(n) = config.max_expansions {
            probe_config.max_lines = probe_config.max_lines.min(n);
        }
        let route = gcr_hightower::hightower_multi(
            plane,
            sources,
            goals.points(),
            &probe_config,
            self.max_pairs,
        )
        .map_err(|e| match e {
            gcr_hightower::HightowerError::InvalidEndpoint { point } => {
                RouteError::InvalidEndpoint { point }
            }
            gcr_hightower::HightowerError::Exhausted { lines } => RouteError::Unreachable {
                what: format!("line probes exhausted after {lines} lines"),
            },
            // HightowerError is #[non_exhaustive]; treat future variants
            // as a not-found outcome.
            _ => RouteError::Unreachable {
                what: "line-probe connection".into(),
            },
        })?;
        // Probe lines are the closest analogue of node expansions.
        let stats = SearchStats {
            expanded: route.lines,
            generated: route.lines,
            touched: route.lines,
            ..SearchStats::default()
        };
        let length = route.polyline.length();
        Ok(RoutedPath {
            polyline: route.polyline,
            cost: LexCost::new(length, 0),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_geom::{Plane, Rect};

    fn plane_with_block() -> Plane {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        p.add_obstacle(Rect::new(30, 30, 70, 70).unwrap());
        p
    }

    fn two_point_request(a: Point, b: Point) -> (RouteTree, GoalSet) {
        let mut tree = RouteTree::new();
        tree.add_point(a);
        (tree, GoalSet::from_point(b))
    }

    fn engines() -> Vec<Box<dyn RoutingEngine>> {
        vec![
            Box::new(GridlessEngine),
            Box::new(GridEngine::default()),
            Box::new(GridEngine::lee_moore()),
            Box::new(HightowerEngine::default()),
        ]
    }

    #[test]
    fn capability_statements_are_consistent() {
        for e in engines() {
            let caps = e.capabilities();
            assert!(!caps.name.is_empty());
            if caps.optimal {
                assert!(
                    caps.complete,
                    "{}: optimal engines must be complete",
                    caps.name
                );
            }
        }
    }

    #[test]
    fn all_engines_route_a_simple_detour() {
        let plane = plane_with_block();
        let config = RouterConfig::default();
        let coster = EdgeCoster::new(&config);
        let (tree, goals) = two_point_request(Point::new(10, 50), Point::new(90, 50));
        for e in engines() {
            let caps = e.capabilities();
            let r = e
                .route_connection(
                    &plane,
                    &tree,
                    &goals,
                    &coster,
                    &config,
                    &[],
                    &mut SearchScratch::new(),
                )
                .unwrap_or_else(|err| panic!("{}: {err}", caps.name));
            assert!(
                plane.polyline_free(&r.polyline),
                "{}: illegal wire",
                caps.name
            );
            assert_eq!(r.polyline.end(), Point::new(90, 50), "{}", caps.name);
            assert!(r.polyline.length() >= 120, "{}: too short", caps.name);
            if caps.optimal {
                assert_eq!(r.cost.primary, 120, "{}: not minimal", caps.name);
                assert_eq!(r.cost.primary, r.polyline.length(), "{}", caps.name);
            }
        }
    }

    #[test]
    fn complete_engines_agree_with_each_other() {
        let plane = plane_with_block();
        let config = RouterConfig::default();
        let coster = EdgeCoster::new(&config);
        for (a, b) in [
            (Point::new(0, 0), Point::new(100, 100)),
            (Point::new(10, 50), Point::new(90, 50)),
            (Point::new(0, 35), Point::new(100, 65)),
        ] {
            let (tree, goals) = two_point_request(a, b);
            let gridless = GridlessEngine
                .route_connection(
                    &plane,
                    &tree,
                    &goals,
                    &coster,
                    &config,
                    &[],
                    &mut SearchScratch::new(),
                )
                .unwrap();
            let grid = GridEngine::default()
                .route_connection(
                    &plane,
                    &tree,
                    &goals,
                    &coster,
                    &config,
                    &[],
                    &mut SearchScratch::new(),
                )
                .unwrap();
            assert_eq!(gridless.cost.primary, grid.cost.primary, "{a} -> {b}");
        }
    }

    #[test]
    fn grid_engine_departs_from_segment_interior() {
        // Tree = horizontal trunk; goal sits below its middle. The grid
        // engine must rasterize the trunk and leave from (50, 40).
        let plane = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        let config = RouterConfig::default();
        let coster = EdgeCoster::new(&config);
        let mut tree = RouteTree::new();
        tree.add_polyline(
            &gcr_geom::Polyline::new(vec![Point::new(0, 40), Point::new(100, 40)]).unwrap(),
        );
        let goals = GoalSet::from_point(Point::new(50, 10));
        let r = GridEngine::default()
            .route_connection(
                &plane,
                &tree,
                &goals,
                &coster,
                &config,
                &[],
                &mut SearchScratch::new(),
            )
            .unwrap();
        assert_eq!(r.cost.primary, 30);
        assert_eq!(r.polyline.start(), Point::new(50, 40));
    }

    #[test]
    fn grid_engine_caps_depend_on_pitch() {
        assert!(GridEngine::default().capabilities().complete);
        assert!(GridEngine::default().capabilities().optimal);
        let coarse = GridEngine {
            pitch: 5,
            informed: true,
        };
        assert!(!coarse.capabilities().complete);
        assert!(!coarse.capabilities().optimal);
    }

    #[test]
    fn grid_engine_enforces_max_expansions() {
        let plane = plane_with_block();
        let mut config = RouterConfig::default();
        config.max_expansions(Some(1));
        let coster = EdgeCoster::new(&config);
        let (tree, goals) = two_point_request(Point::new(10, 50), Point::new(90, 50));
        let r = GridEngine::default().route_connection(
            &plane,
            &tree,
            &goals,
            &coster,
            &config,
            &[],
            &mut SearchScratch::new(),
        );
        assert!(matches!(r, Err(RouteError::LimitExceeded { limit: 1, .. })));
    }

    #[test]
    fn hightower_engine_reports_incompleteness_as_unreachable() {
        // A scenario where probes give up (tight budget): must map to
        // Unreachable, and capabilities must say the engine is incomplete.
        let plane = plane_with_block();
        let config = RouterConfig::default();
        let coster = EdgeCoster::new(&config);
        let engine = HightowerEngine {
            config: gcr_hightower::HightowerConfig {
                max_level: 0,
                max_lines: 2,
            },
            max_pairs: 1,
        };
        let (tree, goals) = two_point_request(Point::new(10, 50), Point::new(90, 50));
        let r = engine.route_connection(
            &plane,
            &tree,
            &goals,
            &coster,
            &config,
            &[],
            &mut SearchScratch::new(),
        );
        assert!(matches!(r, Err(RouteError::Unreachable { .. })));
        assert!(!engine.capabilities().complete);
    }
}
