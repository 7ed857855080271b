//! The shared net-routing core behind both whole-layout drivers.
//!
//! [`BatchRouter`](crate::BatchRouter) (one-shot, borrowing) and
//! [`RoutingSession`](crate::RoutingSession) (owned, incremental) grow
//! nets identically — same Prim-style tree growth, same multi-pin
//! terminal handling, same engine seam. This module holds that single
//! implementation, so "a session routes exactly what a batch routes" is
//! true by construction (and still asserted byte-for-byte by
//! `tests/session.rs`).
//!
//! [`PlaneStore`] is the other shared piece: the obstacle plane in
//! whichever spatial index the caller selected, with the mutation
//! entry points the incremental session needs (obstacle insertion and
//! targeted translation).

use gcr_geom::{Plane, PlaneIndex, Rect, ShardedPlane};
use gcr_layout::{Layout, Net, NetId};
use gcr_search::SearchStats;

use crate::batch::PlaneIndexKind;
use crate::congestion::CongestionPenalty;
use crate::engine::RoutingEngine;
use crate::net_router::NetRoute;
use crate::{EdgeCoster, RouteError, RouteTree, RouterConfig, SearchScratch};

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

    /// Adds many obstacles in one batch, rebuilding the sorted face
    /// lists (and corner tables, for the sharded store) once at the end
    /// instead of once per rectangle. Returns the assigned id range.
    pub(crate) fn add_obstacles(&mut self, rects: &[Rect]) -> std::ops::Range<usize> {
        match self {
            PlaneStore::Flat(p) => p.add_obstacles(rects),
            PlaneStore::Sharded(s) => s.add_obstacles(rects),
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
#[allow(clippy::too_many_arguments)]
pub(crate) fn grow_net<E: RoutingEngine + ?Sized>(
    layout: &Layout,
    plane: &dyn PlaneIndex,
    engine: &E,
    config: &RouterConfig,
    id: NetId,
    penalty: Option<&CongestionPenalty>,
    segment_connections: bool,
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
            engine.route_connection_in(plane, &tree, &goals, &coster, config, scratch)
        } else {
            // Strawman: seed only from connected pins/junction points.
            let mut pin_tree = RouteTree::new();
            for p in tree.points() {
                pin_tree.add_point(*p);
            }
            engine.route_connection_in(plane, &pin_tree, &goals, &coster, config, scratch)
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
