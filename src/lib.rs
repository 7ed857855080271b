//! `gcr` — general-cell routing: a complete reproduction of Gary W.
//! Clow, *A Global Routing Algorithm for General Cells* (DAC 1984).
//!
//! This facade re-exports the whole workspace so applications can depend
//! on one crate:
//!
//! * [`geom`] — rectilinear geometry kernel and the ray-traced obstacle
//!   [`Plane`](geom::Plane),
//! * [`search`] — generic A\*/best-first/blind search engines and the
//!   deterministic [`parallel_map`](search::parallel_map) executor,
//! * [`layout`] — cells, multi-pin terminals, multi-terminal nets,
//!   validation, the `.gcl` text format and an ASCII renderer,
//! * [`router`] — **the paper's contribution**: the gridless A\* global
//!   router with cell hugging, Steiner-tree growth, the inverted-corner ε
//!   and two-pass congestion routing — plus the
//!   [`RoutingEngine`](router::RoutingEngine) trait and the owned,
//!   incremental [`RoutingSession`](router::RoutingSession) (parallel
//!   routing, rip-up & reroute, ECO change lists) that drives **every**
//!   backend below through one contract,
//! * [`grid`] — the Lee–Moore baseline (and grid A\*), the special case,
//! * [`hightower`] — the incomplete line-probe baseline,
//! * [`steiner`] — rectilinear Steiner references (MST, 1-Steiner, exact),
//! * [`detail`] — the detailed-routing substrate (dynamic channels +
//!   left-edge track assignment),
//! * [`workload`] — seeded instance generators and the paper's figure
//!   fixtures,
//! * [`service`] — the long-running routing daemon: a
//!   [`SessionRegistry`](service::SessionRegistry) of warm sessions
//!   behind a line-oriented TCP wire protocol, with the bounded-pool
//!   [`Server`](service::Server) and blocking
//!   [`Client`](service::Client) that `gcrt serve` / `gcrt client`
//!   expose.
//!
//! See `ARCHITECTURE.md` for the crate DAG, the engine contract and the
//! session's schedule invariants.
//!
//! # Quickstart: a routing session
//!
//! [`RoutingSession`](router::RoutingSession) is the routing entry
//! point: it **owns** the layout, keeps the plane index and search
//! arenas warm across calls, and supports incremental
//! rip-up-and-reroute on top of one-shot routing:
//!
//! ```
//! use gcr::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 100×100 die with two macro cells and one net between facing pins.
//! let mut layout = Layout::new(Rect::new(0, 0, 100, 100)?);
//! let alu = layout.add_cell("alu", Rect::new(10, 20, 40, 80)?)?;
//! let rom = layout.add_cell("rom", Rect::new(55, 20, 90, 80)?)?;
//! let net = layout.add_net("bus0");
//! let a = layout.add_terminal(net, "alu_out");
//! layout.add_pin(a, Pin::on_cell(alu, Point::new(40, 50)))?;
//! let b = layout.add_terminal(net, "rom_in");
//! layout.add_pin(b, Pin::on_cell(rom, Point::new(55, 50)))?;
//! layout.validate()?;
//!
//! // Build a session (engine, spatial index and schedule are pluggable)
//! // and route. Routes commit into the session as its occupancy.
//! let mut session = RoutingSession::builder(layout)
//!     .config(RouterConfig::default())
//!     .index(PlaneIndexKind::Sharded)
//!     .build();
//! let route = session.route_net(net)?;
//! assert_eq!(route.wire_length(), 15);
//!
//! // An ECO: a blockage lands on the routed wire. The session marks
//! // exactly the affected nets dirty and re-routes only those, on the
//! // still-warm session.
//! session.add_obstacle("blk", Rect::new(44, 45, 51, 55)?)?;
//! assert_eq!(session.dirty_nets(), vec![net]);
//! let outcome = session.reroute_dirty();
//! assert_eq!(outcome.rerouted, 1);
//! assert!(session.route(net).unwrap().wire_length() > 15);
//! # Ok(())
//! # }
//! ```
//!
//! # Routing through any engine
//!
//! The backend is pluggable: the session builder swaps the engine, and
//! a layout routes the same way through every one of them, in parallel
//! by default with output byte-identical to a serial run:
//!
//! ```
//! use gcr::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut layout = Layout::new(Rect::new(0, 0, 100, 100)?);
//! layout.add_two_pin_net("a", Point::new(5, 5), Point::new(95, 5));
//! layout.add_two_pin_net("b", Point::new(5, 95), Point::new(95, 95));
//!
//! // The paper's gridless engine, all nets in parallel.
//! let routing = RoutingSession::gridless(layout.clone(), RouterConfig::default()).route_all();
//! assert_eq!(routing.routed_count(), 2);
//!
//! // The same layout over the Lee-Moore baseline, picked at run time.
//! let baseline = RoutingSession::builder(layout)
//!     .engine(Box::new(GridEngine::lee_moore()) as Box<dyn RoutingEngine>)
//!     .build()
//!     .route_all();
//! assert_eq!(baseline.wire_length(), routing.wire_length());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gcr_core as router;
pub use gcr_detail as detail;
pub use gcr_geom as geom;
pub use gcr_grid as grid;
pub use gcr_hightower as hightower;
pub use gcr_layout as layout;
pub use gcr_search as search;
pub use gcr_service as service;
pub use gcr_steiner as steiner;
pub use gcr_telemetry as telemetry;
pub use gcr_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use gcr_core::{
        route_two_points, BatchConfig, Budget, CancelReason, EngineCaps, GlobalRouting, GridEngine,
        GridlessEngine, HightowerEngine, NetRoute, PlaneIndexKind, RerouteOutcome, RouteError,
        RouteTree, RoutedPath, RouterConfig, RoutingEngine, RoutingSession, SearchScratch,
        SessionBuilder, SessionStats,
    };
    pub use gcr_geom::{
        Axis, Coord, Dir, Interval, Plane, PlaneIndex, Point, Polyline, Rect, Segment, ShardedPlane,
    };
    pub use gcr_layout::{Cell, CellId, Layout, Net, NetId, Pin, Terminal, TerminalRef};
    pub use gcr_search::{LexCost, SearchStats};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let p = Point::new(1, 2);
        assert_eq!(p.manhattan(Point::new(4, 6)), 7);
        let _ = RouterConfig::default();
    }
}
