//! [`RoutingSession`]: the routing front end, one-shot and incremental
//! (ECO flow).

use std::sync::{Mutex, PoisonError};

use gcr_geom::{PlaneIndex, Point, Rect};
use gcr_layout::{CellId, Layout, LayoutError, NetId, Pin, TerminalRef};
use gcr_search::{parallel_map_with, Budget};
use gcr_telemetry::SpanHandle;

use crate::congestion::{analyze, find_passages, CongestionAnalysis, CongestionPenalty, Passage};
use crate::driver::{grow_net, PlaneStore};
use crate::engine::{GridlessEngine, RoutingEngine};
use crate::negotiate::{NegotiationConfig, NegotiationReport};
use crate::{
    BatchConfig, GlobalRouting, NetRoute, PlaneIndexKind, RouteError, RoutedPath, RouterConfig,
    SearchScratch, TwoPassReport,
};

/// Builds a [`RoutingSession`]; see [`RoutingSession::builder`].
#[derive(Debug)]
pub struct SessionBuilder<E: RoutingEngine = GridlessEngine> {
    layout: Layout,
    config: RouterConfig,
    batch: BatchConfig,
    engine: E,
}

impl SessionBuilder<GridlessEngine> {
    fn new(layout: Layout) -> SessionBuilder<GridlessEngine> {
        SessionBuilder {
            layout,
            config: RouterConfig::default(),
            batch: BatchConfig::default(),
            engine: GridlessEngine,
        }
    }
}

impl<E: RoutingEngine> SessionBuilder<E> {
    /// Sets the router configuration.
    #[must_use]
    pub fn config(mut self, config: RouterConfig) -> SessionBuilder<E> {
        self.config = config;
        self
    }

    /// Swaps the routing engine (any [`RoutingEngine`], including a
    /// `Box<dyn RoutingEngine>` for runtime selection).
    #[must_use]
    pub fn engine<F: RoutingEngine>(self, engine: F) -> SessionBuilder<F> {
        SessionBuilder {
            layout: self.layout,
            config: self.config,
            batch: self.batch,
            engine,
        }
    }

    /// Selects the spatial index backing the session's plane.
    #[must_use]
    pub fn index(mut self, index: PlaneIndexKind) -> SessionBuilder<E> {
        self.batch.index = index;
        self
    }

    /// Replaces the whole scheduling configuration (thread count and
    /// spatial index at once).
    #[must_use]
    pub fn batch(mut self, batch: BatchConfig) -> SessionBuilder<E> {
        self.batch = batch;
        self
    }

    /// Forces serial scheduling, one worker (useful for baselines and
    /// differential tests; output is byte-identical either way).
    #[must_use]
    pub fn serial(mut self) -> SessionBuilder<E> {
        self.batch.threads = Some(1);
        self
    }

    /// Builds the session: the plane index is constructed **now** (a
    /// session's plane is long-lived state, not a per-call lazy).
    #[must_use]
    pub fn build(self) -> RoutingSession<E> {
        let plane = PlaneStore::build(&self.layout, self.batch.index);
        let slots = (0..self.layout.nets().len())
            .map(|_| NetState::default())
            .collect();
        RoutingSession {
            layout: self.layout,
            config: self.config,
            batch: self.batch,
            engine: self.engine,
            plane,
            slots,
            pool: ScratchPool::default(),
            trace: None,
        }
    }
}

/// The committed state of one net within a session.
#[derive(Debug, Clone, Default)]
enum NetSlot {
    /// Never routed, or ripped up.
    #[default]
    Unrouted,
    /// Committed route (the net's occupancy), with its bounding box
    /// taken once at commit for the mutations' dirty test (see
    /// [`route_bounding_box`]).
    Routed { route: NetRoute, bbox: Option<Rect> },
    /// The last routing attempt failed.
    Failed(RouteError),
}

#[derive(Debug, Clone, Default)]
struct NetState {
    slot: NetSlot,
    /// Set when a mutation invalidated (or never produced) this net's
    /// committed route; cleared by the commit of a routing attempt.
    dirty: bool,
    /// How many routing attempts have been committed for this net over
    /// the session's lifetime ([`SessionStats::reroutes`] counts all but
    /// the first).
    attempts: u64,
    /// The connections of the route the last [`RoutingSession::rip_up`]
    /// removed, kept only as the reroute's search hint (see
    /// [`RoutingSession::previous`]): occupancy, analyses, `DUMP`,
    /// `stats()` and the dirty test never see it, and the next commit
    /// clears it.
    ripped: Vec<RoutedPath>,
}

/// A pool of per-worker [`SearchScratch`] arenas owned by the session, so
/// every `route_*` call — not just the nets within one call — reuses warm
/// allocations. Workers check a scratch out for the duration of a
/// parallel map and return it on drop.
#[derive(Debug, Default)]
struct ScratchPool {
    free: Mutex<Vec<SearchScratch>>,
}

impl ScratchPool {
    /// Checks a scratch out with `budget` installed: every checkout
    /// installs its call's budget, so a token a cancelled call left in
    /// a pooled scratch never reaches a later call.
    fn checkout(&self, budget: &Budget) -> PooledScratch<'_> {
        let mut scratch = self
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        scratch.budget = budget.clone();
        PooledScratch {
            pool: self,
            scratch,
        }
    }
}

struct PooledScratch<'a> {
    pool: &'a ScratchPool,
    scratch: SearchScratch,
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        let scratch = std::mem::take(&mut self.scratch);
        self.pool
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(scratch);
    }
}

/// A snapshot of a session's committed state, taken by
/// [`RoutingSession::checkpoint`] so negotiation can roll a cancelled
/// request back, or a capped run forward to its best round, byte-exactly.
/// The slots are the session's whole committed state ([`SessionStats`]
/// and the dirty set are read from them), so
/// [`RoutingSession::restore`] assigns them back.
#[derive(Debug)]
pub(crate) struct SessionCheckpoint {
    slots: Vec<NetState>,
}

/// What a [`RoutingSession::reroute_dirty`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RerouteOutcome {
    /// Nets that were dirty and therefore re-routed.
    pub attempted: usize,
    /// Successful re-routes (committed).
    pub rerouted: usize,
    /// Failed re-routes (committed as failures).
    pub failed: usize,
}

/// A point-in-time summary of a session's committed state: per-net
/// outcome counts, the committed wire, and the cumulative reroute
/// counter. Cheap to assemble (one pass over the commit slots); the
/// `STATS` reply of the `gcr-service` daemon and the `gcrt` report lines
/// are both this struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Total nets in the layout.
    pub nets: usize,
    /// Nets with a committed route.
    pub routed: usize,
    /// Nets whose last committed attempt failed.
    pub failed: usize,
    /// Nets never attempted (or ripped up and not yet re-routed).
    pub unrouted: usize,
    /// Nets currently marked for re-routing.
    pub dirty: usize,
    /// Total wire length over all committed routes.
    pub wire_length: i64,
    /// Cumulative re-routes: committed routing attempts beyond each
    /// net's first, over the session's lifetime (rip-up + reroute, ECO
    /// flushes and two-pass reroutes all count). A negotiation that
    /// goes back to a checkpoint — cancelled, or keep-best — takes back
    /// the attempts committed since.
    pub reroutes: u64,
}

impl std::fmt::Display for SessionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} net(s): {} routed, {} failed, {} unrouted ({} dirty); \
             wire length {}; {} reroute(s)",
            self.nets,
            self.routed,
            self.failed,
            self.unrouted,
            self.dirty,
            self.wire_length,
            self.reroutes
        )
    }
}

/// The routing front end: an owned session over one layout that routes
/// it once or incrementally (ECO flow).
///
/// The paper's flow is one loop over one committed routing state: route
/// every net independently, then reroute the congested ones (two-pass)
/// or widen the placement and reroute (feedback). A session is that
/// state:
///
/// * it **owns** its [`Layout`] and keeps the plane index, a pool of
///   per-worker [`SearchScratch`] arenas and the committed routes alive
///   across calls — the warm state is a
///   cross-call asset, not a per-call one;
/// * [`RoutingSession::route_all`] / [`RoutingSession::route_net`]
///   **commit** routes as the session's occupancy;
///   [`RoutingSession::rip_up`] removes a net's committed segments;
/// * layout mutations ([`RoutingSession::add_net`],
///   [`RoutingSession::add_obstacle`], [`RoutingSession::move_cell`])
///   mark affected nets **dirty** via a bounding-box-vs-route
///   intersection test, and [`RoutingSession::reroute_dirty`] re-routes
///   exactly the invalidated set, in parallel;
/// * the paper's two-pass congestion flow is a short loop over these
///   primitives ([`RoutingSession::route_two_pass`]), and so is
///   PathFinder negotiation ([`RoutingSession::route_negotiated`]).
///
/// # The schedule
///
/// Every `route_*` call routes its nets against one shared plane through
/// [`gcr_search::parallel_map_with`], one pooled scratch per worker,
/// and commits the results in stable net-id order. Three invariants
/// follow, and the root test suites hold them for every engine:
///
/// 1. **serial ≡ parallel**, byte for byte, at any thread count: nets
///    are independent ("the only obstacles are the cells") and the merge
///    is in net-id order (`tests/determinism.rs`);
/// 2. **flat ≡ sharded**: both plane indexes answer every query
///    bit-identically (`tests/plane_equivalence.rs`);
/// 3. **incremental ≡ fresh**: net-by-net routing, rip-up + reroute and
///    mutation + [`RoutingSession::reroute_dirty`] commit exactly what a
///    fresh session over the same layout routes (`tests/session.rs`);
///    the plane mutations in `gcr-geom` preserve rectangle slot order
///    precisely so that no tie-break can drift. A net routed again is
///    handed its last route as an incumbent bound, which keeps its
///    routes and expansions and only lowers the nodes its searches
///    create.
///
/// ```
/// use gcr_core::{PlaneIndexKind, RouterConfig, RoutingSession};
/// use gcr_geom::{Point, Rect};
/// use gcr_layout::Layout;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut layout = Layout::new(Rect::new(0, 0, 100, 100)?);
/// layout.add_two_pin_net("a", Point::new(5, 50), Point::new(95, 50));
///
/// let mut session = RoutingSession::builder(layout)
///     .config(RouterConfig::default())
///     .index(PlaneIndexKind::Sharded)
///     .build();
/// assert_eq!(session.route_all().routed_count(), 1);
///
/// // An ECO: a blockage drops onto the routed net's path …
/// session.add_obstacle("blk", Rect::new(40, 40, 60, 60)?)?;
/// assert_eq!(session.dirty_nets().len(), 1);
/// // … and only the affected net is re-routed, on warm arenas.
/// let outcome = session.reroute_dirty();
/// assert_eq!(outcome.rerouted, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RoutingSession<E: RoutingEngine = GridlessEngine> {
    layout: Layout,
    config: RouterConfig,
    batch: BatchConfig,
    engine: E,
    plane: PlaneStore,
    /// One slot per net, in net-id order: the committed state. Stats,
    /// the dirty set and the mutations' dirty test all read it.
    slots: Vec<NetState>,
    pool: ScratchPool,
    /// Span handle of the traced request currently driving this session
    /// (see [`RoutingSession::set_trace`]); `None` — the overwhelmingly
    /// common state — costs one branch per routed net.
    trace: Option<SpanHandle>,
}

impl RoutingSession<GridlessEngine> {
    /// Starts building a session that owns `layout` (paper's gridless
    /// engine, flat index and the default schedule unless reconfigured).
    #[must_use]
    pub fn builder(layout: Layout) -> SessionBuilder<GridlessEngine> {
        SessionBuilder::new(layout)
    }

    /// A ready session with the gridless engine and default scheduling.
    #[must_use]
    pub fn gridless(layout: Layout, config: RouterConfig) -> RoutingSession<GridlessEngine> {
        RoutingSession::builder(layout).config(config).build()
    }
}

impl<E: RoutingEngine> RoutingSession<E> {
    // ------------------------------------------------------------ access

    /// The owned layout (mutate it only through the session, so dirty
    /// tracking and the plane stay consistent).
    #[must_use]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The active router configuration.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// The engine driving every connection.
    #[must_use]
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The obstacle plane, behind the configured spatial index.
    #[must_use]
    pub fn plane(&self) -> &dyn PlaneIndex {
        self.plane.index()
    }

    /// Which spatial index backs the plane.
    #[must_use]
    pub fn index_kind(&self) -> PlaneIndexKind {
        self.plane.kind()
    }

    /// Consumes the session, returning the (possibly mutated) layout.
    #[must_use]
    pub fn into_layout(self) -> Layout {
        self.layout
    }

    /// The committed route of a net, if the last attempt succeeded.
    #[must_use]
    pub fn route(&self, id: NetId) -> Option<&NetRoute> {
        match self.slots.get(id.index()).map(|s| &s.slot) {
            Some(NetSlot::Routed { route, .. }) => Some(route),
            _ => None,
        }
    }

    /// The committed failure of a net, if the last attempt failed.
    #[must_use]
    pub fn failure(&self, id: NetId) -> Option<&RouteError> {
        match self.slots.get(id.index()).map(|s| &s.slot) {
            Some(NetSlot::Failed(e)) => Some(e),
            _ => None,
        }
    }

    /// Is this net marked for re-routing?
    #[must_use]
    pub fn is_dirty(&self, id: NetId) -> bool {
        self.slots.get(id.index()).is_some_and(|s| s.dirty)
    }

    /// The dirty nets, in stable net-id order (one pass over the slots).
    #[must_use]
    pub fn dirty_nets(&self) -> Vec<NetId> {
        let ids = self.layout.net_ids();
        ids.into_iter()
            .zip(&self.slots)
            .filter_map(|(id, state)| state.dirty.then_some(id))
            .collect()
    }

    /// Summarizes the committed state in one pass over the slots:
    /// outcome counts, committed wire length, dirty set size and the
    /// cumulative reroute counter.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        let mut stats = SessionStats {
            nets: self.slots.len(),
            ..SessionStats::default()
        };
        for state in &self.slots {
            stats.dirty += usize::from(state.dirty);
            stats.reroutes += state.attempts.saturating_sub(1);
            match &state.slot {
                NetSlot::Routed { route, .. } => {
                    stats.routed += 1;
                    stats.wire_length += route.wire_length();
                }
                NetSlot::Failed(_) => stats.failed += 1,
                NetSlot::Unrouted => stats.unrouted += 1,
            }
        }
        stats
    }

    /// Assembles the committed state as a [`GlobalRouting`] (routes and
    /// failures in stable net-id order; unrouted nets are absent).
    #[must_use]
    pub fn routing(&self) -> GlobalRouting {
        let ids = self.layout.net_ids();
        let mut out = GlobalRouting::default();
        for (id, state) in ids.into_iter().zip(&self.slots) {
            match &state.slot {
                NetSlot::Routed { route, .. } => out.routes.push(route.clone()),
                NetSlot::Failed(e) => out.failures.push((id, e.clone())),
                NetSlot::Unrouted => {}
            }
        }
        out
    }

    // ----------------------------------------------------------- tracing

    /// Installs (or clears) the span handle that session operations
    /// attribute their work to. While set, every net routed by any
    /// `route_*` call opens a `net` child span carrying the committed
    /// attempt's search stats, and each individual search inside it
    /// records a `search` leaf (see `gcr-search`'s flush point). The
    /// handle is request-scoped state, deliberately outside
    /// the session checkpoint: a rollback must not resurrect a dead
    /// trace. Tracing is observation only — routed bytes are identical
    /// with or without a handle installed.
    pub fn set_trace(&mut self, trace: Option<SpanHandle>) {
        self.trace = trace;
    }

    /// The installed request span, if any (negotiation attributes its
    /// round count here).
    pub(crate) fn trace(&self) -> Option<&SpanHandle> {
        self.trace.as_ref()
    }

    /// Routes one net with a `net` span opened under the installed
    /// request span, installing the span as this worker thread's active
    /// span so the engine's flush points can attribute `search` leaves
    /// to it.
    fn route_one_traced(
        &self,
        handle: &SpanHandle,
        id: NetId,
        penalty: Option<&CongestionPenalty>,
        scratch: &mut SearchScratch,
    ) -> Result<NetRoute, RouteError> {
        let label = self.layout.net(id).map_or("?", |n| n.name());
        let span = handle.child("net", label);
        let previous = gcr_telemetry::set_active_span(Some(span.clone()));
        let result = self.route_one(id, penalty, scratch);
        gcr_telemetry::set_active_span(previous);
        match &result {
            Ok(route) => span.add_many(&[
                ("expanded", route.stats.expanded as u64),
                ("generated", route.stats.generated as u64),
                ("connections", route.connections.len() as u64),
            ]),
            Err(_) => span.add("failed", 1),
        }
        span.end();
        result
    }

    // ----------------------------------------------------------- routing

    fn route_one(
        &self,
        id: NetId,
        penalty: Option<&CongestionPenalty>,
        scratch: &mut SearchScratch,
    ) -> Result<NetRoute, RouteError> {
        grow_net(
            &self.layout,
            self.plane.index(),
            &self.engine,
            &self.config,
            id,
            penalty,
            true,
            self.previous(id),
            scratch,
        )
    }

    /// The route a net is handed when it is routed again: its committed
    /// connections, or after a rip-up the connections the rip-up
    /// removed, or none. The engine only searches less with them (see
    /// [`RoutingEngine::route_connection`]); a connection that is no
    /// longer a path of the current plane, tree or goals is ignored.
    fn previous(&self, id: NetId) -> &[RoutedPath] {
        let state = &self.slots[id.index()];
        match &state.slot {
            NetSlot::Routed { route, .. } => &route.connections,
            _ => &state.ripped,
        }
    }

    /// Routes `ids` on the configured schedule against the shared plane,
    /// with one pooled scratch per worker. Pure per net, so serial and
    /// parallel schedules commit byte-identical results.
    ///
    /// Every worker's scratch carries `budget`, which the A\* searches
    /// poll on every expansion, and every net runs a full check first
    /// (the only check the Hightower prober gets). A net that observes
    /// the budget exhausted yields `RouteError::Cancelled`; drivers
    /// treat any such result as "commit nothing".
    fn route_many(
        &self,
        ids: &[NetId],
        penalty: Option<&CongestionPenalty>,
        budget: &Budget,
    ) -> Vec<Result<NetRoute, RouteError>> {
        let threads = self.batch.threads_for(ids.len());
        parallel_map_with(
            ids,
            threads,
            || self.pool.checkout(budget),
            |scratch, _, &id| {
                if let Err(reason) = budget.check() {
                    return Err(RouteError::Cancelled {
                        what: format!("{id}"),
                        reason,
                    });
                }
                match &self.trace {
                    Some(handle) => {
                        self.route_one_traced(handle, id, penalty, &mut scratch.scratch)
                    }
                    None => self.route_one(id, penalty, &mut scratch.scratch),
                }
            },
        )
    }

    /// The first budget-cancellation among `results`, if any — the
    /// signal that a budgeted pass must commit nothing.
    fn first_cancellation(results: &[Result<NetRoute, RouteError>]) -> Option<RouteError> {
        results.iter().find_map(|r| match r {
            Err(e @ RouteError::Cancelled { .. }) => Some(e.clone()),
            _ => None,
        })
    }

    /// Marks slot `idx` dirty.
    pub(crate) fn set_dirty_slot(&mut self, idx: usize) {
        self.slots[idx].dirty = true;
    }

    /// Commits a routing attempt as the net's state: the route (with its
    /// bounding box) or the failure replaces the slot, the dirty mark and
    /// any ripped hint clear, and the attempt is counted.
    fn commit(&mut self, id: NetId, result: Result<NetRoute, RouteError>) {
        let state = &mut self.slots[id.index()];
        state.ripped = Vec::new();
        state.slot = match result {
            Ok(route) => NetSlot::Routed {
                bbox: route_bounding_box(&route),
                route,
            },
            Err(e) => NetSlot::Failed(e),
        };
        state.dirty = false;
        if state.attempts > 0 {
            if let Some(m) = crate::telem::live() {
                m.reroutes.inc();
            }
        }
        state.attempts += 1;
    }

    /// Routes (or re-routes) one net now and commits the result as the
    /// net's occupancy, clearing its dirty mark.
    ///
    /// # Errors
    ///
    /// See [`RouteError`]; the failure is also committed, so
    /// [`RoutingSession::failure`] reports it afterwards.
    pub fn route_net(&mut self, id: NetId) -> Result<&NetRoute, RouteError> {
        if id.index() >= self.slots.len() {
            return Err(RouteError::NothingToRoute {
                what: format!("{id}"),
            });
        }
        let result = {
            let mut scratch = self.pool.checkout(&Budget::unlimited());
            match &self.trace {
                Some(handle) => self.route_one_traced(handle, id, None, &mut scratch.scratch),
                None => self.route_one(id, None, &mut scratch.scratch),
            }
        };
        self.commit(id, result);
        match &self.slots[id.index()].slot {
            NetSlot::Routed { route, .. } => Ok(route),
            NetSlot::Failed(e) => Err(e.clone()),
            NetSlot::Unrouted => unreachable!("commit just filled this slot"),
        }
    }

    /// Routes one net with the paper's strawman connection rule: the
    /// spanning tree "would only consider the pins (vertices) as potential
    /// connection points" — new connections may start only at already
    /// connected *pins*, never at tree segments. Commits nothing; exists
    /// to quantify the benefit of the segment-connection Steiner
    /// approximation (experiment E6).
    ///
    /// # Errors
    ///
    /// See [`RouteError`].
    pub fn route_net_pin_tree(&self, id: NetId) -> Result<NetRoute, RouteError> {
        let mut scratch = self.pool.checkout(&Budget::unlimited());
        grow_net(
            &self.layout,
            self.plane.index(),
            &self.engine,
            &self.config,
            id,
            None,
            false,
            &[],
            &mut scratch.scratch,
        )
    }

    /// Routes every net of the layout (in parallel on the configured
    /// schedule), commits all results, and returns the assembled routing.
    /// Byte-identical on every schedule and index (see
    /// [`RoutingSession`]).
    pub fn route_all(&mut self) -> GlobalRouting {
        self.route_all_budgeted(&Budget::unlimited())
            .expect("an unlimited budget never cancels")
    }

    /// [`RoutingSession::route_all`] under a cooperative [`Budget`].
    ///
    /// All-or-nothing: results are computed first and committed only if
    /// **no** net observed the budget as exhausted. On cancellation the
    /// error is returned, nothing is committed, and the session is
    /// byte-identical to its pre-call state — a retry (or an
    /// uninterrupted run on a fresh session) produces byte-identical
    /// routes, asserted by `tests/session.rs`.
    ///
    /// # Errors
    ///
    /// [`RouteError::Cancelled`] when the budget expired or was
    /// cancelled mid-route.
    pub fn route_all_budgeted(&mut self, budget: &Budget) -> Result<GlobalRouting, RouteError> {
        let ids = self.layout.net_ids();
        let results = self.route_many(&ids, None, budget);
        if let Some(e) = Self::first_cancellation(&results) {
            return Err(e);
        }
        for (id, result) in ids.into_iter().zip(results) {
            self.commit(id, result);
        }
        Ok(self.routing())
    }

    /// Removes a net's committed segments from the session (its
    /// occupancy disappears from congestion analyses) and marks it dirty.
    /// The removed connections stay behind only as the reroute's search
    /// hint. Returns `true` when a committed route was actually removed.
    pub fn rip_up(&mut self, id: NetId) -> bool {
        let Some(state) = self.slots.get_mut(id.index()) else {
            return false;
        };
        state.dirty = true;
        match std::mem::take(&mut state.slot) {
            NetSlot::Routed { route, .. } => {
                state.ripped = route.connections;
                true
            }
            _ => false,
        }
    }

    /// Marks one net for re-routing without touching its committed route.
    pub fn mark_dirty(&mut self, id: NetId) {
        if id.index() < self.slots.len() {
            self.set_dirty_slot(id.index());
        }
    }

    /// Re-routes exactly the dirty set, in parallel, committing every
    /// result and clearing the dirty marks. Clean nets are untouched —
    /// this is the warm path an ECO loop lives on.
    pub fn reroute_dirty(&mut self) -> RerouteOutcome {
        self.reroute_dirty_budgeted(&Budget::unlimited())
            .expect("an unlimited budget never cancels")
    }

    /// [`RoutingSession::reroute_dirty`] under a cooperative [`Budget`],
    /// with the same all-or-nothing contract as
    /// [`RoutingSession::route_all_budgeted`]: on cancellation nothing
    /// is committed and every dirty mark survives, so the session is
    /// byte-identical to its pre-call state.
    ///
    /// # Errors
    ///
    /// [`RouteError::Cancelled`] when the budget expired or was
    /// cancelled mid-route.
    pub fn reroute_dirty_budgeted(
        &mut self,
        budget: &Budget,
    ) -> Result<RerouteOutcome, RouteError> {
        self.reroute(None, budget)
    }

    /// Re-routes the dirty set under `penalty` (the surcharged passes of
    /// the two-pass flow and negotiation) and `budget`, with the
    /// all-or-nothing contract of [`RoutingSession::reroute_dirty_budgeted`].
    pub(crate) fn reroute(
        &mut self,
        penalty: Option<&CongestionPenalty>,
        budget: &Budget,
    ) -> Result<RerouteOutcome, RouteError> {
        let ids = self.dirty_nets();
        if let Some(m) = crate::telem::live() {
            m.reroute_passes.inc();
            m.dirty_set_size.observe(ids.len() as u64);
        }
        let results = self.route_many(&ids, penalty, budget);
        if let Some(e) = Self::first_cancellation(&results) {
            return Err(e);
        }
        let mut outcome = RerouteOutcome {
            attempted: ids.len(),
            ..RerouteOutcome::default()
        };
        for (id, result) in ids.into_iter().zip(results) {
            match &result {
                Ok(_) => outcome.rerouted += 1,
                Err(_) => outcome.failed += 1,
            }
            self.commit(id, result);
        }
        Ok(outcome)
    }

    /// The paper's two-pass congestion flow, expressed over the session
    /// primitives: route everything, commit as occupancy, find the
    /// over-subscribed passages, mark the nets through them dirty, and
    /// re-route exactly that set under surcharge. Engines that do not
    /// price congestion ([`EngineCaps::supports_congestion`] is `false`)
    /// skip the second pass — rerouting them could not change anything —
    /// and report `rerouted == 0`. The report equals an independent
    /// route → analyze → surcharge → reroute pipeline over the driver
    /// core byte for byte (the `two_pass_matches_the_pipeline_oracle`
    /// unit test).
    ///
    /// [`EngineCaps::supports_congestion`]: crate::EngineCaps::supports_congestion
    pub fn route_two_pass(&mut self) -> TwoPassReport {
        let _ = self.route_all();
        let passages = find_passages(self.plane.index());
        let before = self.analyze_committed(&passages);
        let affected = before.affected_nets();
        if affected.is_empty() || !self.engine.capabilities().supports_congestion {
            let after = before.clone();
            return TwoPassReport {
                routing: self.routing(),
                before,
                after,
                rerouted: 0,
            };
        }
        let penalty = before.penalty(self.config.congestion_weight);
        for &net_index in &affected {
            // Only committed routes occupy passages, so every affected
            // index names a routed slot; mark it for the surcharged pass.
            self.set_dirty_slot(net_index);
        }
        let outcome = self
            .reroute(Some(&penalty), &Budget::unlimited())
            .expect("an unlimited budget never cancels");
        let after = self.analyze_committed(&passages);
        TwoPassReport {
            routing: self.routing(),
            before,
            after,
            rerouted: outcome.rerouted,
        }
    }

    /// PathFinder-style negotiated congestion: the iterative
    /// generalization of [`RoutingSession::route_two_pass`] — reroute
    /// under growing present + history prices until zero overflow or
    /// `config.max_iters` rounds. See [`negotiate`](mod@crate::negotiate)
    /// for the cost model; byte-identical across serial/parallel ×
    /// flat/sharded schedules.
    pub fn route_negotiated(&mut self, config: &NegotiationConfig) -> NegotiationReport {
        self.route_negotiated_budgeted(config, &Budget::unlimited())
            .expect("an unlimited budget never cancels")
    }

    /// [`RoutingSession::route_negotiated`] under a cooperative
    /// [`Budget`]. Negotiation commits between rounds, so cancellation
    /// rolls back through a pre-request checkpoint rather than by
    /// skipping commits: on error the committed state (routes, failures,
    /// dirty marks and attempt counts) is byte-identical to the pre-call
    /// state.
    ///
    /// # Errors
    ///
    /// [`RouteError::Cancelled`] when the budget expired or was
    /// cancelled mid-negotiation.
    pub fn route_negotiated_budgeted(
        &mut self,
        config: &NegotiationConfig,
        budget: &Budget,
    ) -> Result<NegotiationReport, RouteError> {
        let checkpoint = self.checkpoint();
        match crate::negotiate::negotiate(self, config, budget) {
            Ok(report) => Ok(report),
            Err(e) => {
                self.restore(checkpoint);
                if let Some(m) = crate::telem::live() {
                    m.rollbacks.inc();
                }
                Err(e)
            }
        }
    }

    /// Snapshots the committed state — the slots, with their routes,
    /// dirty marks and attempt counts — so negotiation can go back to
    /// exactly these bytes. The obstacle plane is not snapshotted:
    /// routing commits never mutate it.
    pub(crate) fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            slots: self.slots.clone(),
        }
    }

    /// Restores a [`SessionCheckpoint`] taken on this session: the slots
    /// come back as they were.
    pub(crate) fn restore(&mut self, checkpoint: SessionCheckpoint) {
        self.slots = checkpoint.slots;
    }

    /// Congestion of the committed occupancy over the plane's current
    /// passages.
    #[must_use]
    pub fn congestion(&self) -> CongestionAnalysis {
        let passages = find_passages(self.plane.index());
        self.analyze_committed(&passages)
    }

    /// Slot indices currently holding a committed failure.
    pub(crate) fn failed_slot_indices(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s.slot, NetSlot::Failed(_)).then_some(i))
            .collect()
    }

    pub(crate) fn analyze_committed(&self, passages: &[Passage]) -> CongestionAnalysis {
        analyze(
            passages,
            self.slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match &s.slot {
                    NetSlot::Routed { route, .. } => Some((i, route.segments())),
                    _ => None,
                }),
            self.config.wire_pitch,
        )
    }

    // --------------------------------------------------------- mutations

    /// Adds an (initially empty) net; it starts dirty, so the next
    /// [`RoutingSession::reroute_dirty`] attempts it once it has
    /// terminals.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = self.layout.add_net(name);
        self.slots.push(NetState {
            dirty: true,
            ..NetState::default()
        });
        id
    }

    /// Adds a terminal to a net (marks the net dirty: its committed
    /// route, if any, no longer spans the declared topology).
    ///
    /// # Panics
    ///
    /// As [`Layout::add_terminal`]: panics if `net` is not from this
    /// layout.
    pub fn add_terminal(&mut self, net: NetId, name: impl Into<String>) -> TerminalRef {
        let t = self.layout.add_terminal(net, name);
        self.mark_dirty(net);
        t
    }

    /// Adds a pin to a terminal (marks the owning net dirty).
    ///
    /// # Errors
    ///
    /// See [`Layout::add_pin`].
    pub fn add_pin(&mut self, terminal: TerminalRef, pin: Pin) -> Result<(), LayoutError> {
        self.layout.add_pin(terminal, pin)?;
        self.mark_dirty(terminal.net);
        Ok(())
    }

    /// Adds a two-terminal net with floating pins (the
    /// [`Layout::add_two_pin_net`] convenience, session-tracked).
    pub fn add_two_pin_net(&mut self, name: impl Into<String>, a: Point, b: Point) -> NetId {
        let net = self.add_net(name);
        let ta = self.add_terminal(net, "a");
        self.add_pin(ta, Pin::floating(a)).expect("fresh terminal");
        let tb = self.add_terminal(net, "b");
        self.add_pin(tb, Pin::floating(b)).expect("fresh terminal");
        net
    }

    /// Adds a rectangular cell (obstacle) to the layout **and** the live
    /// plane, and marks every committed route whose bounding box the new
    /// cell intersects as dirty — those are the only nets whose committed
    /// wire can have become illegal.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::DuplicateName`] if a cell of this name
    /// exists.
    pub fn add_obstacle(
        &mut self,
        name: impl Into<String>,
        rect: Rect,
    ) -> Result<CellId, LayoutError> {
        let id = self.layout.add_cell(name, rect)?;
        let obstacle = self.plane.add_obstacle(rect);
        debug_assert_eq!(
            obstacle,
            id.index(),
            "cell ids and obstacle ids stay aligned"
        );
        self.mark_routes_touching(&[rect], false);
        Ok(id)
    }

    /// Moves a cell by `(dx, dy)`: the layout edit (outline + attached
    /// pins, see [`Layout::move_cell`]) and the live-plane edit (in-place
    /// obstacle translation with targeted index maintenance) happen
    /// together, and the dirty set is the union of
    ///
    /// * nets with a pin on the moved cell (their terminals moved),
    /// * committed routes whose bounding box intersects the cell's old
    ///   or new extent (their wire may now be illegal, or may cross the
    ///   vacated space suboptimally — an ECO reroute reclaims it),
    /// * every **failed** net: moving a cell vacates space, so a net
    ///   that was unroutable (or rejected for a pin inside the cell) may
    ///   now route — failures have no bounding box to test, so they are
    ///   all retried.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::UnknownId`] for a stale cell id.
    pub fn move_cell(&mut self, id: CellId, dx: i64, dy: i64) -> Result<(), LayoutError> {
        let old = self
            .layout
            .cell(id)
            .ok_or(LayoutError::UnknownId { kind: "cell" })?
            .rect();
        let moved_nets = self.layout.move_cell(id, dx, dy)?;
        let translated = self.plane.translate_obstacle(id.index(), dx, dy);
        debug_assert!(translated, "cell ids and obstacle ids stay aligned");
        self.mark_routes_touching(&[old, old.translate(dx, dy)], true);
        for net in moved_nets {
            self.mark_dirty(net);
        }
        Ok(())
    }

    /// Marks dirty, in one pass over the slots, every committed route
    /// whose **bounding box** touches one of `extents` — a route that
    /// does not even touch the changed extent cannot have been affected,
    /// since nets see only the cells — and, with `failed`, every
    /// committed failure.
    fn mark_routes_touching(&mut self, extents: &[Rect], failed: bool) {
        for state in &mut self.slots {
            state.dirty |= match &state.slot {
                NetSlot::Routed { bbox: Some(bb), .. } => {
                    extents.iter().any(|rect| bb.touches(rect))
                }
                NetSlot::Failed(_) => failed,
                _ => false,
            };
        }
    }
}

/// Cost attribution of one net's committed state — the `EXPLAIN` verb's
/// payload (see [`RoutingSession::explain_net`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetExplain {
    /// The net's name.
    pub net: String,
    /// Committed outcome: `"routed"`, `"failed"` or `"unrouted"`.
    pub status: &'static str,
    /// Is the net currently marked for re-routing?
    pub dirty: bool,
    /// Routing attempts committed over the session's lifetime.
    pub attempts: u64,
    /// Terminal-pin bounding-box half-perimeter — the wire-length lower
    /// bound no detour can beat (0 for nets with fewer than two pins).
    pub lower_bound: i64,
    /// Committed wire length (routed nets only).
    pub wire_length: Option<i64>,
    /// Point-to-tree connections the committed route is built from.
    pub connections: Option<u64>,
    /// Nodes expanded across the committed attempt's searches.
    pub expanded: Option<u64>,
    /// Offers (ray stops) the committed attempt's searches placed on OPEN.
    pub generated: Option<u64>,
    /// How many of the committed attempt's searches began with an
    /// incumbent: the net's previous route, replayed as a bound.
    pub seeded: Option<u64>,
    /// Binding failure cause from [`failure_cause`] (failed nets only).
    pub cause: Option<&'static str>,
    /// The committed error's display text (failed nets only).
    pub detail: Option<String>,
}

/// The stable one-word cause an `EXPLAIN` response names for a committed
/// routing failure:
///
/// * `budget-trip` — the request's cooperative budget expired.
/// * `congestion-cap` — the per-connection expansion ceiling was hit
///   (the search drowned, typically in surcharged congestion).
/// * `blocked-goal` — no legal path exists, or an endpoint sits inside
///   an obstacle; geometry, not effort, is the binding constraint.
/// * `nothing-to-route` — fewer than two terminals.
#[must_use]
pub fn failure_cause(error: &RouteError) -> &'static str {
    match error {
        RouteError::Cancelled { .. } => "budget-trip",
        RouteError::LimitExceeded { .. } => "congestion-cap",
        RouteError::Unreachable { .. } | RouteError::InvalidEndpoint { .. } => "blocked-goal",
        _ => "nothing-to-route",
    }
}

impl<E: RoutingEngine> RoutingSession<E> {
    /// Attributes one net's committed state: outcome, attempt count,
    /// wire length against the terminal-bbox lower bound, and the
    /// committed attempt's search stats (kept on every [`NetRoute`], so
    /// this is a read, not a re-route). `None` when `id` is not a net
    /// of this session's layout.
    #[must_use]
    pub fn explain_net(&self, id: NetId) -> Option<NetExplain> {
        let net = self.layout.net(id)?;
        let state = self.slots.get(id.index())?;
        let mut out = NetExplain {
            net: net.name().to_string(),
            status: "unrouted",
            dirty: state.dirty,
            attempts: state.attempts,
            lower_bound: net.hpwl(),
            wire_length: None,
            connections: None,
            expanded: None,
            generated: None,
            seeded: None,
            cause: None,
            detail: None,
        };
        match &state.slot {
            NetSlot::Unrouted => {}
            NetSlot::Routed { route, .. } => {
                out.status = "routed";
                out.wire_length = Some(route.wire_length());
                out.connections = Some(route.connections.len() as u64);
                out.expanded = Some(route.stats.expanded as u64);
                out.generated = Some(route.stats.generated as u64);
                out.seeded = Some(route.stats.seeded as u64);
            }
            NetSlot::Failed(error) => {
                out.status = "failed";
                out.cause = Some(failure_cause(error));
                out.detail = Some(error.to_string());
            }
        }
        Some(out)
    }
}

/// The bounding box of a committed route: every tree point (pins and
/// junctions) and every segment endpoint.
fn route_bounding_box(route: &NetRoute) -> Option<Rect> {
    let tree = &route.tree;
    let points = tree.points().iter().copied();
    let ends = tree.segments().iter().flat_map(|s| [s.a(), s.b()]);
    Rect::bounding(points.chain(ends))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_geom::{Point, Rect};

    fn two_net_layout() -> Layout {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100).unwrap());
        // Asymmetric block: the mid net's cheapest detour hugs the south
        // face at y = 40 (+20) rather than the north face at y = 80.
        l.add_cell("a", Rect::new(30, 40, 70, 80).unwrap()).unwrap();
        l.add_two_pin_net("top", Point::new(5, 90), Point::new(95, 90));
        l.add_two_pin_net("mid", Point::new(5, 50), Point::new(95, 50));
        l
    }

    #[test]
    fn rip_up_then_reroute_is_byte_identical() {
        let mut session = RoutingSession::gridless(two_net_layout(), RouterConfig::default());
        let first = session.route_all();
        let id = session.layout().net_by_name("mid").unwrap();
        assert!(session.rip_up(id));
        assert!(session.route(id).is_none(), "occupancy removed");
        assert!(session.is_dirty(id));
        let outcome = session.reroute_dirty();
        assert_eq!(
            outcome,
            RerouteOutcome {
                attempted: 1,
                rerouted: 1,
                failed: 0
            }
        );
        let again = session.routing();
        assert_eq!(first.wire_length(), again.wire_length());
        // The ripped route seeds the reroute's goal bound: the same
        // expansions, fewer nodes created.
        let (cold, warm) = (first.stats(), again.stats());
        assert_eq!(
            (warm.expanded, warm.reopened),
            (cold.expanded, cold.reopened)
        );
        assert!(warm.generated < cold.generated && warm.touched <= cold.touched);
        assert_eq!((cold.seeded, warm.seeded), (0, 1));
    }

    #[test]
    fn add_obstacle_dirties_only_intersecting_routes() {
        let mut session = RoutingSession::gridless(two_net_layout(), RouterConfig::default());
        session.route_all();
        assert!(session.dirty_nets().is_empty());
        // A blockage on the mid net's detour, far from the top net.
        session
            .add_obstacle("blk", Rect::new(40, 20, 60, 45).unwrap())
            .unwrap();
        let dirty = session.dirty_nets();
        let mid = session.layout().net_by_name("mid").unwrap();
        assert_eq!(dirty, vec![mid]);
        let outcome = session.reroute_dirty();
        assert_eq!(outcome.rerouted, 1);
        // The rerouted net is exactly what a fresh session computes.
        let fresh_layout = {
            let mut l = two_net_layout();
            l.add_cell("blk", Rect::new(40, 20, 60, 45).unwrap())
                .unwrap();
            l
        };
        let fresh = RoutingSession::gridless(fresh_layout, RouterConfig::default()).route_all();
        assert_eq!(session.routing().wire_length(), fresh.wire_length());
        // The rerouted net is byte-identical to its fresh counterpart
        // (clean nets keep their committed stats — only legality is
        // tracked for them).
        let mine = session.route(mid).unwrap();
        let theirs = fresh.route_for(mid).unwrap();
        assert_eq!(mine.tree.segments(), theirs.tree.segments());
        assert_eq!(mine.stats, theirs.stats);
    }

    #[test]
    fn move_cell_dirties_pin_nets_and_crossing_routes() {
        let mut layout = Layout::new(Rect::new(0, 0, 120, 100).unwrap());
        let cell = layout
            .add_cell("c", Rect::new(40, 40, 60, 60).unwrap())
            .unwrap();
        let pinned = layout.add_net("pinned");
        let t0 = layout.add_terminal(pinned, "s");
        layout
            .add_pin(t0, Pin::on_cell(cell, Point::new(40, 50)))
            .unwrap();
        let t1 = layout.add_terminal(pinned, "t");
        layout
            .add_pin(t1, Pin::floating(Point::new(5, 50)))
            .unwrap();
        layout.add_two_pin_net("far", Point::new(5, 5), Point::new(115, 5));
        let mut session = RoutingSession::gridless(layout, RouterConfig::default());
        session.route_all();
        session.move_cell(cell, 10, 0).unwrap();
        let dirty = session.dirty_nets();
        assert_eq!(dirty, vec![pinned], "far net unaffected");
        assert_eq!(
            session.layout().cell(cell).unwrap().rect(),
            Rect::new(50, 40, 70, 60).unwrap()
        );
        session.reroute_dirty();
        // The rerouted net equals a fresh route of the mutated layout.
        let fresh =
            RoutingSession::gridless(session.layout().clone(), RouterConfig::default()).route_all();
        assert_eq!(session.routing().wire_length(), fresh.wire_length());
        let mine = session.route(pinned).unwrap();
        let theirs = fresh.route_for(pinned).unwrap();
        assert_eq!(mine.tree.segments(), theirs.tree.segments());
        assert_eq!(mine.stats, theirs.stats);
    }

    #[test]
    fn added_net_starts_dirty_and_reroutes() {
        let mut session = RoutingSession::gridless(two_net_layout(), RouterConfig::default());
        session.route_all();
        let id = session.add_two_pin_net("new", Point::new(5, 10), Point::new(95, 10));
        assert!(session.is_dirty(id));
        let outcome = session.reroute_dirty();
        assert_eq!(outcome.rerouted, 1);
        assert!(session.route(id).is_some());
    }

    #[test]
    fn move_cell_retries_failed_nets() {
        // A donut of mutually overlapping slabs seals the goal pin (the
        // same geometry as route.rs's sealed-region test).
        let mut layout = Layout::new(Rect::new(0, 0, 100, 100).unwrap());
        layout
            .add_cell("south", Rect::new(58, 26, 92, 32).unwrap())
            .unwrap();
        layout
            .add_cell("north", Rect::new(58, 68, 92, 74).unwrap())
            .unwrap();
        let west = layout
            .add_cell("west", Rect::new(58, 26, 64, 74).unwrap())
            .unwrap();
        layout
            .add_cell("east", Rect::new(86, 26, 92, 74).unwrap())
            .unwrap();
        let net = layout.add_two_pin_net("cross", Point::new(5, 50), Point::new(75, 50));
        let mut session = RoutingSession::gridless(layout, RouterConfig::default());
        session.route_all();
        assert!(session.failure(net).is_some(), "donut seals the goal");
        // Sliding the west slab away breaks the ring; the failed net
        // must be retried even though it has no committed route to
        // bbox-test against.
        session.move_cell(west, 0, -60).unwrap();
        assert!(session.is_dirty(net));
        let outcome = session.reroute_dirty();
        assert_eq!(outcome.rerouted, 1);
        assert!(session.route(net).is_some());
    }

    #[test]
    fn stats_track_the_session_lifecycle() {
        let mut session = RoutingSession::gridless(two_net_layout(), RouterConfig::default());
        assert_eq!(
            session.stats(),
            SessionStats {
                nets: 2,
                unrouted: 2,
                ..SessionStats::default()
            }
        );
        let routing = session.route_all();
        let stats = session.stats();
        assert_eq!(stats.routed, 2);
        assert_eq!(stats.unrouted, 0);
        assert_eq!(stats.wire_length, routing.wire_length());
        assert_eq!(stats.reroutes, 0, "first attempts are not reroutes");
        // Rip up + reroute: one cumulative reroute, same wire.
        let mid = session.layout().net_by_name("mid").unwrap();
        session.rip_up(mid);
        assert_eq!(session.stats().unrouted, 1);
        assert_eq!(session.stats().dirty, 1);
        session.reroute_dirty();
        let stats = session.stats();
        assert_eq!((stats.routed, stats.dirty, stats.reroutes), (2, 0, 1));
        assert_eq!(stats.wire_length, routing.wire_length());
        // A failing attempt counts as a commit too.
        let lonely = session.add_net("lonely");
        let _ = session.route_net(lonely);
        let stats = session.stats();
        assert_eq!((stats.nets, stats.failed, stats.reroutes), (3, 1, 1));
        let _ = session.route_net(lonely);
        assert_eq!(
            session.stats().reroutes,
            2,
            "second failed attempt is a reroute"
        );
        let text = stats.to_string();
        assert!(text.contains("1 failed"), "{text}");
    }

    /// A negotiation cancelled after its first pass committed goes back to
    /// the pre-request checkpoint: `stats()` and every `explain_net` come
    /// back exactly, with a failed net, a ripped (unrouted, dirty) net,
    /// a dirty routed net and earlier reroutes in the state.
    #[test]
    fn negotiation_cancelled_after_its_first_pass_restores_stats_and_explain() {
        // Pitch 10 leaves the 20-wide passage above cell `a` room for two
        // wires, so the nets added below congest it.
        let mut config = RouterConfig::default();
        config.wire_pitch(10);
        let mut session = RoutingSession::gridless(two_net_layout(), config);
        session.route_all();
        let mid = session.layout().net_by_name("mid").unwrap();
        session.rip_up(mid);
        session.reroute_dirty();
        let lonely = session.add_net("lonely");
        let _ = session.route_net(lonely); // commits a failure
        let top2 = session.add_two_pin_net("top2", Point::new(5, 92), Point::new(95, 92));
        session.add_two_pin_net("top3", Point::new(5, 94), Point::new(95, 94));
        session.reroute_dirty();
        session.rip_up(top2);
        session.mark_dirty(mid);
        // The ceiling admits exactly the first pass's expansions, so a
        // later round trips it and the pre-request checkpoint is
        // restored: `top2` unrouted and `mid` dirty again.
        let probe = Budget::unlimited();
        let mut twin = RoutingSession::gridless(session.layout().clone(), session.config().clone());
        twin.route_all_budgeted(&probe).unwrap();
        assert!(twin.congestion().total_overflow() > 0, "the nets congest");
        let explain = |s: &RoutingSession<GridlessEngine>| {
            let ids = s.layout().net_ids();
            (
                s.stats(),
                ids.into_iter()
                    .map(|id| s.explain_net(id))
                    .collect::<Vec<_>>(),
            )
        };
        let before = explain(&session);
        let stats = before.0;
        let counts = (stats.failed, stats.unrouted, stats.dirty, stats.reroutes);
        assert_eq!(counts, (1, 1, 2, 1), "{stats}");
        let ceiling = Budget::unlimited().with_expansion_ceiling(probe.expansions() + 1);
        assert!(matches!(
            session.route_negotiated_budgeted(&NegotiationConfig::default(), &ceiling),
            Err(RouteError::Cancelled { .. })
        ));
        assert_eq!(explain(&session), before);
    }

    /// The congested alley: two cells 10 apart and four nets whose
    /// shortest routes all run through the gap.
    fn alley_layout() -> Layout {
        let mut l = Layout::new(Rect::new(0, 0, 200, 120).unwrap());
        l.add_cell("a", Rect::new(40, 20, 95, 100).unwrap())
            .unwrap();
        l.add_cell("b", Rect::new(105, 20, 160, 100).unwrap())
            .unwrap();
        for i in 0..4i64 {
            let x = 96 + i * 2;
            l.add_two_pin_net(format!("n{i}"), Point::new(x, 0), Point::new(x, 110));
        }
        l
    }

    #[test]
    fn failures_are_committed_and_reported() {
        let mut session = RoutingSession::gridless(two_net_layout(), RouterConfig::default());
        let lonely = session.add_net("lonely");
        assert!(matches!(
            session.route_net(lonely),
            Err(RouteError::NothingToRoute { .. })
        ));
        assert!(session.failure(lonely).is_some());
        assert!(!session.is_dirty(lonely), "attempt clears the dirty mark");
        let routing = session.routing();
        assert_eq!(routing.failures.len(), 1);
    }

    #[test]
    fn route_all_collects_failures() {
        let mut l = two_net_layout();
        let bad = l.add_net("bad");
        let t = l.add_terminal(bad, "only");
        l.add_pin(t, Pin::floating(Point::new(5, 95))).unwrap();
        let routing = RoutingSession::gridless(l, RouterConfig::default()).route_all();
        assert_eq!(routing.routed_count(), 2);
        assert_eq!(routing.failures.len(), 1);
        assert_eq!(routing.failures[0].0, bad);
        assert!(routing.wire_length() > 0);
        assert!(routing.route_for(bad).is_none());
    }

    #[test]
    fn two_pass_reduces_alley_congestion() {
        // A narrow alley (capacity 2 at pitch 5) and four nets whose
        // shortest routes all run through it, while a slightly longer
        // path around the outside exists.
        let mut config = RouterConfig::default();
        config.wire_pitch(5).congestion_weight(6);
        let report = RoutingSession::gridless(alley_layout(), config).route_two_pass();
        assert!(report.before.total_overflow() > 0, "scenario must congest");
        assert!(report.rerouted > 0);
        assert!(
            report.after.total_overflow() < report.before.total_overflow(),
            "second pass should relieve the alley: before {}, after {}",
            report.before.total_overflow(),
            report.after.total_overflow()
        );
        assert_eq!(report.routing.routed_count(), 4);
    }

    /// The two-pass flow written out once more, independently of the
    /// session: on a fresh flat plane, route every net through the
    /// driver core in net-id order and analyze; surcharge the congested
    /// passages; reroute each affected net under that penalty, handing it
    /// its first-pass route as the session does, unless the engine cannot
    /// price it; analyze again.
    fn two_pass_oracle<E: RoutingEngine>(
        layout: &Layout,
        config: &RouterConfig,
        engine: &E,
    ) -> TwoPassReport {
        let plane = layout.to_plane();
        let passages = find_passages(&plane);
        let mut scratch = SearchScratch::new();
        let mut route = |id, penalty, previous: &[RoutedPath]| {
            grow_net(
                layout,
                &plane,
                engine,
                config,
                id,
                penalty,
                true,
                previous,
                &mut scratch,
            )
        };
        let analyze_all = |results: &[(NetId, Result<NetRoute, RouteError>)]| {
            let routed = results.iter().filter_map(|(id, result)| {
                let route = result.as_ref().ok()?;
                Some((id.index(), route.segments()))
            });
            analyze(&passages, routed, config.wire_pitch)
        };
        let mut results: Vec<_> = layout
            .net_ids()
            .into_iter()
            .map(|id| (id, route(id, None, &[])))
            .collect();
        let before = analyze_all(&results);
        let affected = before.affected_nets();
        let penalty = before.penalty(config.congestion_weight);
        let mut rerouted = 0;
        if engine.capabilities().supports_congestion {
            for (id, result) in &mut results {
                if affected.contains(&id.index()) {
                    let first = result.as_ref().map_or(&[][..], |r| &r.connections);
                    *result = route(*id, Some(&penalty), first);
                    rerouted += usize::from(result.is_ok());
                }
            }
        }
        let after = analyze_all(&results);
        let mut routing = GlobalRouting::default();
        for (id, result) in results {
            match result {
                Ok(route) => routing.routes.push(route),
                Err(e) => routing.failures.push((id, e)),
            }
        }
        TwoPassReport {
            routing,
            before,
            after,
            rerouted,
        }
    }

    fn assert_two_pass_matches_oracle<E: RoutingEngine + Clone>(
        layout: &Layout,
        config: &RouterConfig,
        engine: &E,
        what: &str,
    ) -> TwoPassReport {
        let oracle = two_pass_oracle(layout, config, engine);
        for index in [PlaneIndexKind::Flat, PlaneIndexKind::Sharded] {
            let report = RoutingSession::builder(layout.clone())
                .config(config.clone())
                .engine(engine.clone())
                .index(index)
                .build()
                .route_two_pass();
            let what = format!("{what}/{index:?}");
            assert_eq!(report.rerouted, oracle.rerouted, "{what}: rerouted");
            // Every field is a Vec, BTreeSet or integer, so equal Debug
            // renderings mean byte-identical reports.
            let bytes = |v: &dyn std::fmt::Debug| format!("{v:?}");
            assert_eq!(bytes(&report.before), bytes(&oracle.before), "{what}");
            assert_eq!(bytes(&report.after), bytes(&oracle.after), "{what}");
            assert_eq!(bytes(&report.routing), bytes(&oracle.routing), "{what}");
        }
        oracle
    }

    /// `route_two_pass` ≡ the independent pipeline, byte for byte, on
    /// both indexes: on a seeded sweep, on the congested alley, and on a
    /// congestion-blind engine.
    #[test]
    fn two_pass_matches_the_pipeline_oracle() {
        let mut config = RouterConfig::default();
        config.wire_pitch(4).congestion_weight(5);
        let mut rerouted = 0;
        for case in 0..4u64 {
            let layout = gcr_workload::scaling_instance(2, 2, 8, 2, case);
            let what = format!("case {case}");
            rerouted +=
                assert_two_pass_matches_oracle(&layout, &config, &GridlessEngine, &what).rerouted;
        }
        assert!(rerouted > 0, "the sweep must exercise the second pass");

        let mut alley = RouterConfig::default();
        alley.wire_pitch(5).congestion_weight(6);
        let report =
            assert_two_pass_matches_oracle(&alley_layout(), &alley, &GridlessEngine, "alley");
        assert!(report.rerouted > 0 && report.after.total_overflow() == 0);

        let blind = crate::GridEngine::default();
        let report = assert_two_pass_matches_oracle(&alley_layout(), &alley, &blind, "blind");
        assert!(report.before.total_overflow() > 0 && report.rerouted == 0);
    }

    #[test]
    fn traced_route_attributes_net_spans_matching_committed_stats() {
        use gcr_telemetry::{SpanHandle, SpanRecorder};
        let mut session = RoutingSession::gridless(two_net_layout(), RouterConfig::default());
        let recorder = SpanRecorder::new("request", "test");
        let root = recorder.root();
        session.set_trace(Some(SpanHandle::new(recorder.clone(), root)));
        let untraced = RoutingSession::gridless(two_net_layout(), RouterConfig::default());
        let mut untraced = untraced;
        let traced_routing = session.route_all();
        let plain_routing = untraced.route_all();
        session.set_trace(None);
        recorder.end(root);
        let tree = recorder.finish();

        // Tracing is observation only: routed bytes are unchanged.
        assert_eq!(traced_routing.wire_length(), plain_routing.wire_length());

        let nets = tree.root.children.clone();
        assert_eq!(nets.len(), 2, "one net span per routed net");
        for span in &nets {
            assert_eq!(span.name, "net");
            let route = traced_routing
                .routes
                .iter()
                .find(|r| r.net == span.label)
                .expect("net span labelled with a routed net's name");
            assert_eq!(span.counter("expanded"), Some(route.stats.expanded as u64));
            assert_eq!(
                span.counter("generated"),
                Some(route.stats.generated as u64)
            );
            assert_eq!(
                span.counter("connections"),
                Some(route.connections.len() as u64)
            );
            // The engine's flush point hangs `search` leaves under the
            // net span; two-pin nets take exactly one search, and its
            // attribution agrees with the net rollup.
            let searches: Vec<_> = span
                .children
                .iter()
                .filter(|c| c.name == "search")
                .collect();
            assert_eq!(searches.len(), 1);
            assert_eq!(searches[0].counter("expanded"), span.counter("expanded"));
        }
        // Once the handle is cleared, further routing records nothing.
        let extra = session.add_two_pin_net("late", Point::new(5, 10), Point::new(95, 10));
        let _ = session.route_net(extra);
        assert_eq!(recorder.finish().span_count(), tree.span_count());
    }

    #[test]
    fn explain_attributes_routed_and_failed_nets() {
        let mut session = RoutingSession::gridless(two_net_layout(), RouterConfig::default());
        let mid = session.layout().net_by_name("mid").unwrap();
        assert_eq!(
            session.explain_net(mid).unwrap().status,
            "unrouted",
            "explain works before any attempt"
        );
        session.route_all();
        let explain = session.explain_net(mid).unwrap();
        assert_eq!(explain.status, "routed");
        assert_eq!(explain.net, "mid");
        assert_eq!(explain.attempts, 1);
        assert!(!explain.dirty);
        // mid runs 5→95 at y=50 with a 90-wide pin bbox: the committed
        // detour strictly exceeds the half-perimeter lower bound.
        assert_eq!(explain.lower_bound, 90);
        assert!(explain.wire_length.unwrap() > explain.lower_bound);
        assert!(explain.expanded.unwrap() > 0);
        assert!(explain.generated.unwrap() > 0);
        assert_eq!(explain.connections, Some(1));
        assert_eq!(explain.cause, None);

        let lonely = session.add_net("lonely");
        let _ = session.route_net(lonely);
        let explain = session.explain_net(lonely).unwrap();
        assert_eq!(explain.status, "failed");
        assert_eq!(explain.cause, Some("nothing-to-route"));
        assert!(explain.detail.unwrap().contains("lonely"));
        assert_eq!(explain.wire_length, None);
    }

    #[test]
    fn explain_names_blocked_goal_on_a_sealed_net() {
        // Same donut as move_cell_retries_failed_nets: geometry, not
        // effort, is the binding constraint.
        let mut layout = Layout::new(Rect::new(0, 0, 100, 100).unwrap());
        layout
            .add_cell("south", Rect::new(58, 26, 92, 32).unwrap())
            .unwrap();
        layout
            .add_cell("north", Rect::new(58, 68, 92, 74).unwrap())
            .unwrap();
        layout
            .add_cell("west", Rect::new(58, 26, 64, 74).unwrap())
            .unwrap();
        layout
            .add_cell("east", Rect::new(86, 26, 92, 74).unwrap())
            .unwrap();
        let net = layout.add_two_pin_net("cross", Point::new(5, 50), Point::new(75, 50));
        let mut session = RoutingSession::gridless(layout, RouterConfig::default());
        session.route_all();
        let explain = session.explain_net(net).unwrap();
        assert_eq!(explain.status, "failed");
        assert_eq!(explain.cause, Some("blocked-goal"));
    }

    #[test]
    fn explain_names_congestion_cap_on_a_drowned_search() {
        let mut config = RouterConfig::default();
        config.max_expansions(Some(1));
        let mut session = RoutingSession::gridless(two_net_layout(), config);
        session.route_all();
        let mid = session.layout().net_by_name("mid").unwrap();
        let explain = session.explain_net(mid).unwrap();
        assert_eq!(explain.status, "failed");
        assert_eq!(explain.cause, Some("congestion-cap"));
    }

    #[test]
    fn failure_cause_names_the_binding_constraint() {
        use crate::CancelReason;
        let cancelled = RouteError::Cancelled {
            what: "net a".into(),
            reason: CancelReason::Deadline,
        };
        assert_eq!(failure_cause(&cancelled), "budget-trip");
        let limited = RouteError::LimitExceeded {
            what: "net a".into(),
            limit: 9,
        };
        assert_eq!(failure_cause(&limited), "congestion-cap");
        let sealed = RouteError::Unreachable {
            what: "net a".into(),
        };
        assert_eq!(failure_cause(&sealed), "blocked-goal");
        let bad = RouteError::InvalidEndpoint {
            point: Point::new(1, 2),
        };
        assert_eq!(failure_cause(&bad), "blocked-goal");
        let empty = RouteError::NothingToRoute {
            what: "net a".into(),
        };
        assert_eq!(failure_cause(&empty), "nothing-to-route");
    }
}
