//! Clow's gridless A\* global router for general cells — the paper's
//! primary contribution.
//!
//! The router searches the routing plane directly, with **no grid and no
//! channel decomposition**. States are points (paired with their arrival
//! direction so turn-dependent costs compose); successors are produced by
//! ray tracing — each ray "extends any path as far toward the goal as is
//! feasible in *x* and *y*" and generates turn points only where a minimal
//! path could usefully bend: at goal alignments, at obstacle collision
//! points, and at obstacle-corner alignments ("hugs cells as they are
//! encountered"). Searching this sparse implicit graph with the Manhattan
//! lower bound ĥ gives optimal routes after expanding "surprisingly few
//! nodes" (Figure 1 of the paper; experiment E1/E4 here).
//!
//! On top of two-point routing the crate implements the paper's
//! extensions:
//!
//! * **multi-terminal nets** — a Steiner-tree approximation that grows a
//!   routing tree Prim-style, where every *segment* of the partial tree is
//!   a legal connection point, not just its vertices ([`RouteTree`]);
//! * **multi-pin terminals** — connecting any pin of a terminal pulls all
//!   of its pins into the connected set;
//! * **generalized cost function** — the inverted-corner ε penalty
//!   (realized exactly as a lexicographic cost component) and congestion
//!   penalties over inter-cell passages, enabling the paper's two-pass
//!   congestion-aware flow ([`congestion`]);
//! * **independent net routing** — nets see only cells as obstacles, so
//!   net ordering does not exist.
//!
//! # Example: route one connection
//!
//! ```
//! use gcr_core::{route_two_points, RouterConfig};
//! use gcr_geom::{Plane, Point, Rect};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut plane = Plane::new(Rect::new(0, 0, 100, 100)?);
//! plane.add_obstacle(Rect::new(30, 20, 70, 80)?);
//!
//! let route = route_two_points(
//!     &plane,
//!     Point::new(10, 50),
//!     Point::new(90, 50),
//!     &RouterConfig::default(),
//! )?;
//! // 80 straight-line units are blocked; the minimal detour climbs 30 to
//! // a face of the block and back: 80 + 2×30 = 140.
//! assert_eq!(route.cost.primary, 140);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod congestion;
mod cost;
mod driver;
pub mod eco;
mod engine;
mod error;
mod feedback;
mod goal;
pub mod negotiate;
mod route;
mod routing;
mod scratch;
mod session;
mod space;
mod state;
mod telem;
mod tree;

pub use config::{BatchConfig, PlaneIndexKind, RouterConfig};
pub use cost::{bend_is_anchored, EdgeCoster};
pub use eco::{apply_eco, parse_eco, write_eco, EcoError, EcoOp, EcoReport, EcoStep};
pub use engine::{EngineCaps, GridEngine, GridlessEngine, HightowerEngine, RoutingEngine};
pub use error::RouteError;
pub use feedback::{placement_feedback, FeedbackOptions, FeedbackReport, IterationRecord};
pub use gcr_search::{Budget, CancelReason};
pub use goal::GoalSet;
pub use negotiate::{negotiate, NegotiationConfig, NegotiationCost, NegotiationReport};
pub use route::{route_from_tree, route_from_tree_in, route_two_points, RoutedPath};
pub use routing::{GlobalRouting, NetRoute, TwoPassReport};
pub use scratch::SearchScratch;
pub use session::{
    failure_cause, NetExplain, RerouteOutcome, RoutingSession, SessionBuilder, SessionStats,
};
pub use space::RoutingSpace;
pub use state::RouteState;
pub use tree::RouteTree;
