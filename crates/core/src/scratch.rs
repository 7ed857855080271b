//! [`SearchScratch`]: the reusable allocation footprint of one routing
//! worker.
//!
//! Routing a layout runs thousands of searches, each of which used to
//! build its node table, state index, OPEN heap and staging buffers from
//! nothing. This struct bundles every reusable piece — one
//! [`SearchArena`] per search-state type plus the point-staging buffers
//! the engine adapters use to assemble sources — so a worker
//! (or a multi-terminal net driver) pays the allocations once and then
//! only ever clears them.
//!
//! Ownership discipline (asserted by `tests/determinism.rs`):
//!
//! * [`RoutingSession`](crate::RoutingSession) keeps a pool of scratches
//!   alive across calls and checks one out **per `parallel_map_with`
//!   worker**, which reuses it across every net that worker claims;
//! * the net driver reuses the same scratch across **all connections of
//!   a multi-terminal net**;
//! * the one-shot `route_two_points` owns a fresh scratch per call;
//!   every other entry point takes one.
//!
//! Scratch state is worker-local and never influences results: every
//! arena is reset on entry to the search and every buffer is cleared
//! before use, so a reused scratch returns bit-identical routes to a
//! fresh one.

use gcr_geom::Point;
use gcr_grid::GridSearchArena;
use gcr_search::{Budget, LexCost, SearchArena};

use crate::{GoalSet, RouteState};

/// Reusable per-worker search state; see the module docs for the
/// ownership discipline.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Arena for the gridless A\* (states carry arrival directions).
    pub(crate) gridless: SearchArena<RouteState, LexCost>,
    /// Arena for the grid A\* / Lee–Moore searches (grid-node states).
    pub(crate) grid: GridSearchArena,
    /// Staging buffer for source-point assembly (grid rasterization,
    /// probe-pair enumeration).
    pub(crate) sources: Vec<Point>,
    /// The net driver's per-connection goal set, cleared (not rebuilt)
    /// between connections. Taken out of the scratch for the duration of
    /// an engine call (`std::mem::take`, which leaves an allocation-free
    /// empty set) so the engine can borrow the scratch mutably alongside.
    pub(crate) goal_set: GoalSet,
    /// Candidate-point buffer for seed assembly in
    /// [`RouteTree::seeds_into`](crate::RouteTree::seeds_into) (sorted +
    /// deduplicated in place).
    pub(crate) seed_points: Vec<Point>,
    /// The assembled multi-source seed states, reused across connections
    /// (taken out around the search like `goal_set`).
    pub(crate) seeds: Vec<(RouteState, LexCost)>,
    /// Path-reconstruction buffer the gridless search fills
    /// (`astar_in`).
    pub(crate) path_states: Vec<RouteState>,
    /// Polyline-simplification staging buffer; only the final exact-size
    /// vertex vector of a routed connection is allocated.
    pub(crate) path_points: Vec<Point>,
    /// The cooperative cancellation budget every A\* of this scratch
    /// polls, gridless and grid alike. Unlimited in a fresh scratch; the
    /// session's scratch pool installs the calling request's budget on
    /// every checkout, so a cancelled token never outlives its call.
    /// Like every other scratch field it can stop work but never steer
    /// it, so scratch reuse stays result-invisible.
    pub(crate) budget: Budget,
}

impl SearchScratch {
    /// An empty scratch (no capacity reserved yet).
    #[must_use]
    pub fn new() -> SearchScratch {
        SearchScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_scratch_is_empty_and_debuggable() {
        let s = SearchScratch::new();
        assert_eq!(s.gridless.node_capacity(), 0);
        assert!(s.sources.is_empty() && s.seed_points.is_empty());
        assert!(format!("{s:?}").contains("SearchScratch"));
    }
}
