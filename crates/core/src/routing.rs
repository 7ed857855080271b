//! What routing a net and a layout produces: [`NetRoute`],
//! [`GlobalRouting`] and the two-pass [`TwoPassReport`], as
//! [`RoutingSession`](crate::RoutingSession) returns them.

use std::fmt;

use gcr_geom::Segment;
use gcr_layout::NetId;
use gcr_search::SearchStats;

use crate::congestion::CongestionAnalysis;
use crate::{RouteError, RouteTree, RoutedPath};

/// The routing tree of one net, with per-connection detail.
#[derive(Debug, Clone)]
pub struct NetRoute {
    /// The net's name.
    pub net: String,
    /// The net id within its layout.
    pub id: NetId,
    /// One routed connection per terminal beyond the first, in the order
    /// the tree grew (nearest terminal first, Prim-style).
    pub connections: Vec<RoutedPath>,
    /// The completed routing tree.
    pub tree: RouteTree,
    /// Accumulated search statistics over all connections.
    pub stats: SearchStats,
}

impl NetRoute {
    /// Total wire length of the net's tree.
    #[must_use]
    pub fn wire_length(&self) -> i64 {
        self.tree.wire_length()
    }

    /// Total bends over all connections.
    #[must_use]
    pub fn bends(&self) -> usize {
        self.connections.iter().map(RoutedPath::bends).sum()
    }

    /// The tree's wire segments.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        self.tree.segments()
    }
}

impl fmt::Display for NetRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "net {}: {} connection(s), length {}, {} bend(s)",
            self.net,
            self.connections.len(),
            self.wire_length(),
            self.bends()
        )
    }
}

/// The result of routing a whole layout.
#[derive(Debug, Clone, Default)]
pub struct GlobalRouting {
    /// Successful routes.
    pub routes: Vec<NetRoute>,
    /// Nets that failed, with the reason.
    pub failures: Vec<(NetId, RouteError)>,
}

impl GlobalRouting {
    /// Total wire length over all routed nets.
    #[must_use]
    pub fn wire_length(&self) -> i64 {
        self.routes.iter().map(NetRoute::wire_length).sum()
    }

    /// Aggregate search statistics.
    #[must_use]
    pub fn stats(&self) -> SearchStats {
        let mut total = SearchStats::default();
        for r in &self.routes {
            total.absorb(&r.stats);
        }
        total
    }

    /// Number of successfully routed nets.
    #[must_use]
    pub fn routed_count(&self) -> usize {
        self.routes.len()
    }

    /// The route for a given net id, if it succeeded.
    #[must_use]
    pub fn route_for(&self, id: NetId) -> Option<&NetRoute> {
        self.routes.iter().find(|r| r.id == id)
    }
}

impl fmt::Display for GlobalRouting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "routed {}/{} nets, total length {}",
            self.routes.len(),
            self.routes.len() + self.failures.len(),
            self.wire_length()
        )
    }
}

/// Report of a two-pass congestion-aware routing run.
#[derive(Debug, Clone)]
pub struct TwoPassReport {
    /// The final routing (pass-2 routes for affected nets, pass-1 routes
    /// for the rest).
    pub routing: GlobalRouting,
    /// Congestion before the reroute.
    pub before: CongestionAnalysis,
    /// Congestion after the reroute.
    pub after: CongestionAnalysis,
    /// How many nets were rerouted.
    pub rerouted: usize,
}

#[cfg(test)]
mod tests {
    use crate::{RouterConfig, RoutingSession};
    use gcr_geom::{Point, Rect};
    use gcr_layout::Layout;

    #[test]
    fn display_summaries() {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100).unwrap());
        l.add_cell("a", Rect::new(10, 20, 40, 80).unwrap()).unwrap();
        let id = l.add_two_pin_net("w", Point::new(5, 5), Point::new(95, 5));
        let mut session = RoutingSession::gridless(l, RouterConfig::default());
        assert!(session.route_net(id).unwrap().to_string().contains("net w"));
        assert!(session.route_all().to_string().contains("routed"));
    }
}
