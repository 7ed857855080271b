//! The generalized cost function.
//!
//! The paper: "Because of the generality of the A\* algorithm, the
//! heuristic cost function can be used to favor certain classes of routes
//! over others." This module implements the two instances the paper
//! describes — the inverted-corner ε (Figure 2) and congestion penalties —
//! on top of the base rectilinear wire length.

use gcr_geom::{Dir, PlaneIndex, Point, Segment};
use gcr_search::LexCost;

use crate::congestion::CongestionPenalty;
use crate::{RouteState, RouterConfig};

/// Returns `true` if a bend at `q` hugs solid geometry: `q` lies on the
/// boundary of some obstacle or on the plane boundary.
///
/// Bends that hug are the paper's *preferred* corners; a quarter turn in
/// open space creates the **inverted corner** of Figure 2 (a notch that
/// wastes detailed-routing space) and is charged one ε.
#[must_use]
pub fn bend_is_anchored(plane: &dyn PlaneIndex, q: Point) -> bool {
    plane.obstacle_at(q).is_some() || plane.bounds().on_boundary(q)
}

/// Prices one search edge: base wire length, plus the inverted-corner ε,
/// plus congestion surcharges when a congestion pass is active.
#[derive(Debug, Clone, Copy)]
pub struct EdgeCoster<'a> {
    corner_penalty: bool,
    congestion: Option<&'a CongestionPenalty>,
}

impl<'a> EdgeCoster<'a> {
    /// A coster for the plain first pass (no congestion surcharges).
    #[must_use]
    pub fn new(config: &RouterConfig) -> EdgeCoster<'a> {
        EdgeCoster {
            corner_penalty: config.corner_penalty,
            congestion: None,
        }
    }

    /// A coster that additionally charges for wire inside over-subscribed
    /// passages (the paper's second pass: "a second route of the affected
    /// nets could penalize those paths which chose the congested area").
    #[must_use]
    pub fn with_congestion(
        config: &RouterConfig,
        penalty: &'a CongestionPenalty,
    ) -> EdgeCoster<'a> {
        EdgeCoster {
            corner_penalty: config.corner_penalty,
            congestion: Some(penalty),
        }
    }

    /// The cost of extending the route from `from` to `to` travelling
    /// `dir`.
    ///
    /// The primary component is the Manhattan length plus any congestion
    /// surcharge (both commensurable with length, keeping the Manhattan ĥ
    /// admissible); the ε component charges a bend at `from.point` that
    /// does not hug geometry. `anchored` is [`bend_is_anchored`] at
    /// `from.point`: it depends only on the state being expanded, so the
    /// successor generator probes it once per expansion and passes it to
    /// every edge.
    #[must_use]
    pub fn edge(&self, from: &RouteState, to: Point, dir: Dir, anchored: bool) -> LexCost {
        self.leg(from.point, to) + self.departure(from, dir, anchored)
    }

    /// The part of an edge paid along the wire from `from` to `to`: the
    /// Manhattan length plus any congestion surcharge. It adds up along
    /// a ray, and the length alone is a lower bound on it.
    #[must_use]
    pub fn leg(&self, from: Point, to: Point) -> LexCost {
        let mut primary = from.manhattan(to);
        if let Some(c) = self.congestion {
            let seg = Segment::new(from, to).expect("search edges are axis-aligned");
            primary += c.surcharge(&seg);
        }
        LexCost::primary(primary)
    }

    /// The part of every edge from `from` in `dir` that is paid before
    /// any wire: the ε of an unanchored bend at `from.point`, or zero.
    /// [`EdgeCoster::edge`] adds it to the wire's cost.
    #[must_use]
    pub fn departure(&self, from: &RouteState, dir: Dir, anchored: bool) -> LexCost {
        LexCost::epsilon(i64::from(
            self.corner_penalty && from.bends_into(dir) && !anchored,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_geom::{Plane, Rect};
    use gcr_search::PathCost;

    fn plane() -> Plane {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        p.add_obstacle(Rect::new(30, 30, 70, 70).unwrap());
        p
    }

    #[test]
    fn anchoring_detects_obstacle_and_boundary() {
        let p = plane();
        assert!(bend_is_anchored(&p, Point::new(30, 30))); // block corner
        assert!(bend_is_anchored(&p, Point::new(30, 50))); // block face
        assert!(bend_is_anchored(&p, Point::new(0, 50))); // plane boundary
        assert!(!bend_is_anchored(&p, Point::new(10, 10))); // open space
    }

    #[test]
    fn straight_moves_cost_length_only() {
        let coster = EdgeCoster::new(&RouterConfig::default());
        let from = RouteState::arrived(Point::new(0, 10), Dir::East);
        let c = coster.edge(&from, Point::new(20, 10), Dir::East, false);
        assert_eq!(c, LexCost::new(20, 0));
        assert_eq!(coster.departure(&from, Dir::East, false), LexCost::zero());
    }

    #[test]
    fn unanchored_bend_costs_epsilon() {
        let p = plane();
        let coster = EdgeCoster::new(&RouterConfig::default());
        let from = RouteState::arrived(Point::new(10, 10), Dir::East);
        let anchored = bend_is_anchored(&p, from.point);
        let c = coster.edge(&from, Point::new(10, 20), Dir::North, anchored);
        assert_eq!(c, LexCost::new(10, 1));
        let departure = coster.departure(&from, Dir::North, anchored);
        assert_eq!(departure, LexCost::epsilon(1));
    }

    #[test]
    fn anchored_bend_is_free_of_epsilon() {
        let p = plane();
        let coster = EdgeCoster::new(&RouterConfig::default());
        // Bend exactly at the block's south-west corner.
        let from = RouteState::arrived(Point::new(30, 30), Dir::East);
        let anchored = bend_is_anchored(&p, from.point);
        let c = coster.edge(&from, Point::new(30, 80), Dir::North, anchored);
        assert_eq!(c, LexCost::new(50, 0));
        assert_eq!(
            coster.departure(&from, Dir::North, anchored),
            LexCost::zero()
        );
    }

    #[test]
    fn source_states_never_pay_epsilon() {
        let coster = EdgeCoster::new(&RouterConfig::default());
        let from = RouteState::source(Point::new(10, 10));
        let c = coster.edge(&from, Point::new(10, 20), Dir::North, false);
        assert_eq!(c, LexCost::new(10, 0));
    }

    #[test]
    fn penalty_can_be_disabled() {
        let mut cfg = RouterConfig::default();
        cfg.corner_penalty(false);
        let coster = EdgeCoster::new(&cfg);
        let from = RouteState::arrived(Point::new(10, 10), Dir::East);
        let c = coster.edge(&from, Point::new(10, 20), Dir::North, false);
        assert_eq!(c, LexCost::new(10, 0));
    }
}
