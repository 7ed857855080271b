//! The net-routing core behind [`RoutingSession`](crate::RoutingSession).
//!
//! [`grow_net`] is the one implementation of the paper's Prim-style tree
//! growth, multi-pin terminal handling and engine seam: every routed
//! net, first pass or reroute, serial or parallel, goes through it.
//!
//! [`PlaneStore`] is the other piece: the obstacle plane in whichever
//! spatial index the caller selected, with the mutation entry points the
//! incremental session needs (obstacle insertion and targeted
//! translation).

use gcr_geom::{Plane, PlaneIndex, Rect, ShardedPlane};
use gcr_layout::{Layout, Net, NetId};
use gcr_search::SearchStats;

use crate::congestion::CongestionPenalty;
use crate::engine::RoutingEngine;
use crate::{
    EdgeCoster, NetRoute, PlaneIndexKind, RouteError, RouteTree, RoutedPath, RouterConfig,
    SearchScratch,
};

/// The obstacle plane behind a routing driver, in whichever index the
/// configuration selected.
#[derive(Debug)]
pub(crate) enum PlaneStore {
    Flat(Plane),
    Sharded(ShardedPlane),
}

impl PlaneStore {
    pub(crate) fn build(layout: &Layout, kind: PlaneIndexKind) -> PlaneStore {
        match kind {
            PlaneIndexKind::Flat => PlaneStore::Flat(layout.to_plane()),
            PlaneIndexKind::Sharded => PlaneStore::Sharded(ShardedPlane::new(layout.to_plane())),
        }
    }

    pub(crate) fn kind(&self) -> PlaneIndexKind {
        match self {
            PlaneStore::Flat(_) => PlaneIndexKind::Flat,
            PlaneStore::Sharded(_) => PlaneIndexKind::Sharded,
        }
    }

    pub(crate) fn index(&self) -> &dyn PlaneIndex {
        match self {
            PlaneStore::Flat(p) => p,
            PlaneStore::Sharded(s) => s,
        }
    }

    /// Adds a rectangular obstacle; the sharded store registers it in its
    /// buckets and corner tables.
    pub(crate) fn add_obstacle(&mut self, rect: Rect) -> usize {
        match self {
            PlaneStore::Flat(p) => p.add_obstacle(rect),
            PlaneStore::Sharded(s) => s.add_obstacle(rect),
        }
    }

    /// Translates obstacle `id` in place (see
    /// [`Plane::translate_obstacle`]); the sharded store rewrites only
    /// the touched buckets and corner-table columns.
    pub(crate) fn translate_obstacle(&mut self, id: usize, dx: i64, dy: i64) -> bool {
        match self {
            PlaneStore::Flat(p) => p.translate_obstacle(id, dx, dy),
            PlaneStore::Sharded(s) => s.translate_obstacle(id, dx, dy),
        }
    }
}

/// Routes one net of `layout` over `plane` through `engine`: the tree is
/// grown Prim-style — starting from the first terminal's pins, each step
/// asks the engine for one connection from the whole tree to the pins of
/// all unconnected terminals and commits the cheapest connection found;
/// the reached terminal's *other* pins join the connected set too
/// (multi-pin terminals).
///
/// `segment_connections = false` is the paper's strawman rule (pins
/// only, never tree segments); every production caller passes `true`.
///
/// `previous` are the connections of the net's last route when it is
/// rerouted; every connection's search receives all of them (see
/// [`RoutingEngine::route_connection`]), and the result is the same as
/// with `&[]` except for the search counters that may fall.
#[allow(clippy::too_many_arguments)]
pub(crate) fn grow_net<E: RoutingEngine + ?Sized>(
    layout: &Layout,
    plane: &dyn PlaneIndex,
    engine: &E,
    config: &RouterConfig,
    id: NetId,
    penalty: Option<&CongestionPenalty>,
    segment_connections: bool,
    previous: &[RoutedPath],
    scratch: &mut SearchScratch,
) -> Result<NetRoute, RouteError> {
    let net: &Net = layout.net(id).ok_or(RouteError::NothingToRoute {
        what: format!("{id}"),
    })?;
    let terminals = net.terminals();
    if terminals.len() < 2 {
        return Err(RouteError::NothingToRoute {
            what: format!("net {}", net.name()),
        });
    }
    for pin in net.all_pins() {
        if !plane.point_free(pin.position) {
            return Err(RouteError::InvalidEndpoint {
                point: pin.position,
            });
        }
    }
    let coster = match penalty {
        Some(p) => EdgeCoster::with_congestion(config, p),
        None => EdgeCoster::new(config),
    };

    let mut tree = RouteTree::new();
    for pin in terminals[0].pins() {
        tree.add_point(pin.position);
    }
    let mut remaining: Vec<usize> = (1..terminals.len()).collect();
    let mut connections = Vec::with_capacity(remaining.len());
    let mut stats = SearchStats::default();

    while !remaining.is_empty() {
        // The goal set lives in the scratch (cleared, not rebuilt) and is
        // taken out around the engine call, which borrows the scratch
        // mutably itself; `mem::take` leaves an allocation-free empty set.
        let mut goals = std::mem::take(&mut scratch.goal_set);
        goals.clear();
        for &t in &remaining {
            for pin in terminals[t].pins() {
                goals.add_point(pin.position);
            }
        }
        let routed = if segment_connections {
            engine.route_connection(plane, &tree, &goals, &coster, config, previous, scratch)
        } else {
            // Strawman: seed only from connected pins/junction points.
            let mut pin_tree = RouteTree::new();
            for p in tree.points() {
                pin_tree.add_point(*p);
            }
            engine.route_connection(plane, &pin_tree, &goals, &coster, config, previous, scratch)
        };
        scratch.goal_set = goals;
        let routed = routed.map_err(|e| match e {
            RouteError::Unreachable { .. } => RouteError::Unreachable {
                what: format!("net {}", net.name()),
            },
            RouteError::LimitExceeded { limit, .. } => RouteError::LimitExceeded {
                what: format!("net {}", net.name()),
                limit,
            },
            other => other,
        })?;
        let reached = routed.polyline.end();
        let t = *remaining
            .iter()
            .find(|&&t| terminals[t].pins().iter().any(|p| p.position == reached))
            .expect("search terminated on a goal pin");
        tree.add_polyline(&routed.polyline);
        for pin in terminals[t].pins() {
            tree.add_point(pin.position);
        }
        remaining.retain(|&x| x != t);
        stats.absorb(&routed.stats);
        connections.push(routed);
    }

    Ok(NetRoute {
        net: net.name().to_string(),
        id,
        connections,
        tree,
        stats,
    })
}

/// The net-growth behaviours, driven through the session front end.
#[cfg(test)]
mod tests {
    use crate::{RouteError, RouterConfig, RoutingSession};
    use gcr_geom::{Point, Rect};
    use gcr_layout::{Layout, NetId, Pin};

    /// Two cells with an alley; pins on facing edges and outer edges.
    fn two_cell_layout() -> Layout {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100).unwrap());
        l.add_cell("a", Rect::new(10, 20, 40, 80).unwrap()).unwrap();
        l.add_cell("b", Rect::new(50, 20, 90, 80).unwrap()).unwrap();
        l
    }

    fn pin_net(l: &mut Layout, name: &str, pins: &[(&str, Point)]) -> NetId {
        let id = l.add_net(name);
        for (i, (cell, p)) in pins.iter().enumerate() {
            let t = l.add_terminal(id, format!("t{i}"));
            let pin = if *cell == "-" {
                Pin::floating(*p)
            } else {
                Pin::on_cell(l.cell_by_name(cell).unwrap(), *p)
            };
            l.add_pin(t, pin).unwrap();
        }
        id
    }

    fn session(l: Layout) -> RoutingSession {
        RoutingSession::gridless(l, RouterConfig::default())
    }

    /// Three floating pins: a trunk A–B and a pin C below its interior.
    fn three_terminal_net() -> (Layout, NetId) {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100).unwrap());
        let id = pin_net(
            &mut l,
            "t3",
            &[
                ("-", Point::new(0, 50)),
                ("-", Point::new(60, 50)),
                ("-", Point::new(50, 10)),
            ],
        );
        (l, id)
    }

    #[test]
    fn two_terminal_net_routes_minimally() {
        let mut l = two_cell_layout();
        let id = pin_net(
            &mut l,
            "w",
            &[("a", Point::new(40, 50)), ("b", Point::new(50, 50))],
        );
        l.validate().unwrap();
        let mut s = session(l);
        let r = s.route_net(id).unwrap();
        assert_eq!(r.wire_length(), 10);
        assert_eq!(r.connections.len(), 1);
    }

    #[test]
    fn three_terminal_net_uses_segment_connection() {
        // The trunk A-B routes first (it is the nearest terminal and its
        // straight route is unique); pin C below then connects to the
        // trunk *segment* at (50,50), not to either pin.
        let (l, id) = three_terminal_net();
        let mut s = session(l);
        let r = s.route_net(id).unwrap();
        // Trunk 60 + stem 40 = 100. A pin-only spanning tree would cost
        // 60 + 50 (C to the nearest *pin*, B) = 110.
        assert_eq!(r.wire_length(), 100);
        assert_eq!(r.connections.len(), 2);
        // The stem lands on the trunk interior.
        assert_eq!(r.connections[1].polyline.start(), Point::new(50, 50));
    }

    #[test]
    fn pin_tree_strawman_is_longer_than_segment_tree() {
        let (l, id) = three_terminal_net();
        let mut s = session(l);
        let strawman = s.route_net_pin_tree(id).unwrap();
        assert!(s.route(id).is_none(), "the strawman commits nothing");
        let steiner = s.route_net(id).unwrap();
        assert_eq!(steiner.wire_length(), 100); // trunk 60 + stem 40
        assert_eq!(strawman.wire_length(), 110); // trunk 60 + C-to-B 50
    }

    #[test]
    fn multi_pin_terminal_uses_closest_pin() {
        let mut l = two_cell_layout();
        let id = l.add_net("mp");
        // Terminal 0: single pin on cell a's east face.
        let t0 = l.add_terminal(id, "src");
        l.add_pin(
            t0,
            Pin::on_cell(l.cell_by_name("a").unwrap(), Point::new(40, 50)),
        )
        .unwrap();
        // Terminal 1: two equivalent pins on cell b; the west-face pin is
        // far closer than the east-face pin.
        let t1 = l.add_terminal(id, "dst");
        l.add_pin(
            t1,
            Pin::on_cell(l.cell_by_name("b").unwrap(), Point::new(90, 70)),
        )
        .unwrap();
        l.add_pin(
            t1,
            Pin::on_cell(l.cell_by_name("b").unwrap(), Point::new(50, 50)),
        )
        .unwrap();
        let r = session(l).route_net(id).unwrap().wire_length();
        assert_eq!(r, 10, "should use the west-face pin");
    }

    #[test]
    fn multi_pin_terminal_enlarges_connected_set() {
        // After connecting terminal B via its near pin, terminal C should
        // be able to connect to B's *other* pin at zero extra cost from
        // that pin's side.
        let mut l = Layout::new(Rect::new(0, 0, 200, 100).unwrap());
        let id = l.add_net("chain");
        let t0 = l.add_terminal(id, "a");
        l.add_pin(t0, Pin::floating(Point::new(0, 50))).unwrap();
        let t1 = l.add_terminal(id, "b");
        l.add_pin(t1, Pin::floating(Point::new(20, 50))).unwrap();
        l.add_pin(t1, Pin::floating(Point::new(180, 50))).unwrap();
        let t2 = l.add_terminal(id, "c");
        l.add_pin(t2, Pin::floating(Point::new(190, 50))).unwrap();
        // a-b: 20. c connects to b's far pin: 10. Without multi-pin
        // bookkeeping c would have to reach the wire at x<=20: 170.
        assert_eq!(session(l).route_net(id).unwrap().wire_length(), 30);
    }

    #[test]
    fn single_terminal_net_is_rejected() {
        let mut l = two_cell_layout();
        let id = pin_net(&mut l, "lonely", &[("-", Point::new(5, 5))]);
        assert!(matches!(
            session(l).route_net(id),
            Err(RouteError::NothingToRoute { .. })
        ));
    }

    #[test]
    fn independent_nets_do_not_block_each_other() {
        let mut l = two_cell_layout();
        // Two nets whose straight routes are identical: both legal because
        // nets see only cells.
        let ends = [("-", Point::new(45, 0)), ("-", Point::new(45, 100))];
        let n1 = pin_net(&mut l, "n1", &ends);
        let n2 = pin_net(&mut l, "n2", &ends);
        let mut s = session(l);
        s.route_all();
        assert_eq!(s.route(n1).unwrap().wire_length(), 100);
        assert_eq!(s.route(n2).unwrap().wire_length(), 100);
    }

    #[test]
    fn pins_inside_cells_are_invalid_endpoints() {
        let mut l = two_cell_layout();
        let id = pin_net(
            &mut l,
            "bad",
            &[("-", Point::new(20, 50)), ("-", Point::new(95, 5))],
        );
        assert!(matches!(
            session(l).route_net(id),
            Err(RouteError::InvalidEndpoint { .. })
        ));
    }
}
