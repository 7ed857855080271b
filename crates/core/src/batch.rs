//! The batch routing pipeline: every net of a layout, through any
//! [`RoutingEngine`], optionally in parallel.
//!
//! The paper: "independently routing each net considerably reduces the
//! complexity of the search since the only obstacles are the cells …
//! Independent net routing also eliminates the problem of net ordering."
//! Independence is not just a quality argument — it makes the whole
//! routing pass embarrassingly parallel. [`BatchRouter`] exploits that:
//! nets fan out over a deterministic parallel map against one shared
//! immutable [`Plane`], and results are merged back **in stable net-id
//! order**, so the parallel schedule is unobservable:
//!
//! > serial output ≡ parallel output, byte for byte
//!
//! (asserted by `tests/determinism.rs`). The paper's two-pass congestion
//! flow runs on top of the aggregated passage occupancies, rerouting only
//! the nets that use over-subscribed passages — again in parallel.

use std::sync::OnceLock;

use gcr_geom::PlaneIndex;
use gcr_layout::{Layout, NetId};
use gcr_search::parallel_map_with;

use crate::congestion::{analyze, find_passages, CongestionPenalty};
use crate::driver::{grow_net, PlaneStore};
use crate::engine::{GridlessEngine, RoutingEngine};
use crate::negotiate::{NegotiationConfig, NegotiationReport};
use crate::net_router::{GlobalRouting, NetRoute, TwoPassReport};
use crate::{RouteError, RouterConfig, SearchScratch};

/// Which spatial index backs the obstacle plane of a batch run.
///
/// Both implementations answer every query bit-identically (asserted by
/// `tests/plane_equivalence.rs`); the knob only changes how the answers
/// are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlaneIndexKind {
    /// The flat ray-traced [`Plane`] with its sorted-face topological
    /// index.
    #[default]
    Flat,
    /// The bucket-gridded [`ShardedPlane`] with its perpendicular-pruned
    /// corner tables, shared across all nets of the batch.
    Sharded,
}

/// How a batch run schedules its nets.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Route nets on worker threads (`false` = plain serial loop). Output
    /// is byte-identical either way.
    pub parallel: bool,
    /// Worker count; `None` = the machine's available parallelism, capped
    /// by the batch size.
    pub threads: Option<usize>,
    /// The spatial index answering the engines' connection queries.
    /// Output is byte-identical either way.
    pub index: PlaneIndexKind,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            parallel: true,
            threads: None,
            index: PlaneIndexKind::Flat,
        }
    }
}

impl BatchConfig {
    /// A forced-serial configuration (useful for baselines and for
    /// verifying the parallel/serial equivalence).
    #[must_use]
    pub fn serial() -> BatchConfig {
        BatchConfig {
            parallel: false,
            ..BatchConfig::default()
        }
    }

    /// The default schedule over the sharded, query-caching plane index.
    #[must_use]
    pub fn sharded() -> BatchConfig {
        BatchConfig::default().with_index(PlaneIndexKind::Sharded)
    }

    /// Replaces the spatial-index selection.
    #[must_use]
    pub fn with_index(mut self, index: PlaneIndexKind) -> BatchConfig {
        self.index = index;
        self
    }

    pub(crate) fn threads_for(&self, items: usize) -> usize {
        if !self.parallel {
            return 1;
        }
        self.threads
            .unwrap_or_else(|| gcr_search::default_threads(items))
            .max(1)
    }
}

/// Routes the nets of a [`Layout`] through a pluggable [`RoutingEngine`].
///
/// This is the generalization of the original `GlobalRouter` (which is
/// now a thin wrapper fixing the engine to [`GridlessEngine`]): the same
/// Prim-style tree growth, multi-pin terminal handling and two-pass
/// congestion flow, over any backend.
#[derive(Debug)]
pub struct BatchRouter<'a, E: RoutingEngine = GridlessEngine> {
    layout: &'a Layout,
    /// Built lazily on first use, so reconfiguring the index via
    /// [`BatchRouter::with_batch`] before the first route never pays for
    /// a plane it immediately discards.
    plane: OnceLock<PlaneStore>,
    config: RouterConfig,
    batch: BatchConfig,
    engine: E,
}

impl<'a> BatchRouter<'a, GridlessEngine> {
    /// A batch router with the paper's gridless engine.
    #[must_use]
    pub fn gridless(layout: &'a Layout, config: RouterConfig) -> BatchRouter<'a, GridlessEngine> {
        BatchRouter::new(layout, config, GridlessEngine)
    }
}

impl<'a, E: RoutingEngine> BatchRouter<'a, E> {
    /// Builds a batch router for `layout` (cells become the obstacle
    /// plane) driving `engine`.
    #[must_use]
    pub fn new(layout: &'a Layout, config: RouterConfig, engine: E) -> BatchRouter<'a, E> {
        BatchRouter {
            layout,
            plane: OnceLock::new(),
            config,
            batch: BatchConfig::default(),
            engine,
        }
    }

    /// Replaces the scheduling configuration (dropping an already built
    /// plane store when the spatial-index selection changed).
    #[must_use]
    pub fn with_batch(mut self, batch: BatchConfig) -> BatchRouter<'a, E> {
        if self.plane.get().is_some_and(|p| p.kind() != batch.index) {
            self.plane = OnceLock::new();
        }
        self.batch = batch;
        self
    }

    /// The plane store in the configured index (built on first use; safe
    /// to race from the batch worker threads).
    fn store(&self) -> &PlaneStore {
        self.plane
            .get_or_init(|| PlaneStore::build(self.layout, self.batch.index))
    }

    /// The obstacle plane the router searches, behind the configured
    /// spatial index.
    #[must_use]
    pub fn plane(&self) -> &dyn PlaneIndex {
        self.store().index()
    }

    /// The active router configuration.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// The active scheduling configuration.
    #[must_use]
    pub fn batch(&self) -> &BatchConfig {
        &self.batch
    }

    /// The engine driving every connection.
    #[must_use]
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Routes one net (no congestion surcharges).
    ///
    /// # Errors
    ///
    /// See [`RouteError`].
    pub fn route_net(&self, id: NetId) -> Result<NetRoute, RouteError> {
        self.route_net_with(id, None)
    }

    /// Routes one net, optionally under congestion penalties (pass 2).
    ///
    /// The tree is grown Prim-style: starting from the first terminal's
    /// pins, each step asks the engine for one connection from the whole
    /// tree to the pins of all unconnected terminals and commits the
    /// cheapest connection found; the reached terminal's *other* pins
    /// join the connected set too (multi-pin terminals).
    ///
    /// # Errors
    ///
    /// See [`RouteError`].
    pub fn route_net_with(
        &self,
        id: NetId,
        penalty: Option<&CongestionPenalty>,
    ) -> Result<NetRoute, RouteError> {
        self.grow_net(id, penalty, true, &mut SearchScratch::new())
    }

    /// Routes one net like [`BatchRouter::route_net_with`], reusing a
    /// caller-owned [`SearchScratch`] — the per-worker seam the batch
    /// schedulers use, exposed so external drivers (and the arena
    /// differential tests) can amortize allocations the same way.
    /// Results are bit-identical to the fresh-scratch form.
    ///
    /// # Errors
    ///
    /// See [`RouteError`].
    pub fn route_net_in(
        &self,
        id: NetId,
        penalty: Option<&CongestionPenalty>,
        scratch: &mut SearchScratch,
    ) -> Result<NetRoute, RouteError> {
        self.grow_net(id, penalty, true, scratch)
    }

    /// Routes one net with the paper's strawman connection rule (pins
    /// only, never tree segments); see `GlobalRouter::route_net_pin_tree`.
    ///
    /// # Errors
    ///
    /// See [`RouteError`].
    pub fn route_net_pin_tree(&self, id: NetId) -> Result<NetRoute, RouteError> {
        self.grow_net(id, None, false, &mut SearchScratch::new())
    }

    fn grow_net(
        &self,
        id: NetId,
        penalty: Option<&CongestionPenalty>,
        segment_connections: bool,
        scratch: &mut SearchScratch,
    ) -> Result<NetRoute, RouteError> {
        grow_net(
            self.layout,
            self.store().index(),
            &self.engine,
            &self.config,
            id,
            penalty,
            segment_connections,
            scratch,
        )
    }

    /// Routes every net independently (pass 1). Failures are collected,
    /// not fatal. Runs on the configured schedule (parallel by default);
    /// the result is byte-identical to a serial run.
    #[must_use]
    pub fn route_all(&self) -> GlobalRouting {
        self.route_all_with(None)
    }

    fn route_all_with(&self, penalty: Option<&CongestionPenalty>) -> GlobalRouting {
        let ids = self.layout.net_ids();
        let threads = self.batch.threads_for(ids.len());
        // One scratch per worker: every net a worker claims reuses the
        // same arenas. Scratch never influences results, so the schedule
        // stays unobservable (serial ≡ parallel, asserted by
        // tests/determinism.rs).
        let results = parallel_map_with(&ids, threads, SearchScratch::new, |scratch, _, &id| {
            self.route_net_in(id, penalty, scratch)
        });
        let mut out = GlobalRouting::default();
        for (id, result) in ids.into_iter().zip(results) {
            match result {
                Ok(r) => out.routes.push(r),
                Err(e) => out.failures.push((id, e)),
            }
        }
        out
    }

    /// The paper's two-pass congestion flow: route everything, measure
    /// passage congestion, then reroute only the nets that use
    /// over-subscribed passages with those passages surcharged.
    ///
    /// Engines that do not price congestion
    /// ([`EngineCaps::supports_congestion`](crate::EngineCaps) is
    /// `false`) skip the second pass — rerouting them could not change
    /// anything — and report `rerouted == 0`.
    #[must_use]
    pub fn route_two_pass(&self) -> TwoPassReport {
        let first = self.route_all();
        let passages = find_passages(self.store().index());
        let collect = |routing: &GlobalRouting| {
            routing
                .routes
                .iter()
                .map(|r| (r.id.index(), r.segments().to_vec()))
                .collect::<Vec<_>>()
        };
        let segs = collect(&first);
        let before = analyze(
            &passages,
            segs.iter().map(|(i, s)| (*i, s.as_slice())),
            self.config.wire_pitch,
        );
        let affected = before.affected_nets();
        if affected.is_empty() || !self.engine.capabilities().supports_congestion {
            let after = before.clone();
            return TwoPassReport {
                routing: first,
                before,
                after,
                rerouted: 0,
            };
        }
        let penalty = before.penalty(self.config.congestion_weight);
        // Reroute the affected nets in parallel, then merge in first-pass
        // order so the report is deterministic.
        let threads = self.batch.threads_for(affected.len());
        let rerouted_results = parallel_map_with(
            &first.routes,
            threads,
            SearchScratch::new,
            |scratch, _, r| {
                affected
                    .contains(&r.id.index())
                    .then(|| self.route_net_in(r.id, Some(&penalty), scratch))
            },
        );
        let mut routing = GlobalRouting::default();
        let mut rerouted = 0;
        for (r, result) in first.routes.iter().zip(rerouted_results) {
            match result {
                Some(Ok(new_route)) => {
                    rerouted += 1;
                    routing.routes.push(new_route);
                }
                Some(Err(e)) => routing.failures.push((r.id, e)),
                None => routing.routes.push(r.clone()),
            }
        }
        routing.failures.extend(first.failures.iter().cloned());
        let segs = collect(&routing);
        let after = analyze(
            &passages,
            segs.iter().map(|(i, s)| (*i, s.as_slice())),
            self.config.wire_pitch,
        );
        TwoPassReport {
            routing,
            before,
            after,
            rerouted,
        }
    }

    /// PathFinder-style negotiated congestion: the iterative
    /// generalization of [`BatchRouter::route_two_pass`], rerouting
    /// under growing present + history prices until zero overflow or
    /// `config.max_iters` rounds (see [`crate::negotiate`]).
    ///
    /// The loop is inherently stateful (each round reroutes against the
    /// previous round's committed occupancy), so the batch form runs an
    /// owned [`RoutingSession`](crate::RoutingSession) over a clone of
    /// the layout, borrowing this router's engine, config and schedule —
    /// byte-identical to calling
    /// [`RoutingSession::route_negotiated`](crate::RoutingSession) on an
    /// equivalent session (asserted by `tests/negotiate.rs`).
    #[must_use]
    pub fn route_negotiated(&self, config: &NegotiationConfig) -> NegotiationReport {
        let mut session = crate::RoutingSession::builder(self.layout.clone())
            .config(self.config.clone())
            .batch(self.batch)
            .engine(&self.engine)
            .build();
        crate::negotiate::negotiate(&mut session, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{GridEngine, HightowerEngine};
    use gcr_geom::{Point, Rect};
    use gcr_layout::Pin;

    fn grid_of_nets() -> Layout {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100).unwrap());
        l.add_cell("a", Rect::new(10, 20, 40, 80).unwrap()).unwrap();
        l.add_cell("b", Rect::new(50, 20, 90, 80).unwrap()).unwrap();
        for i in 0..6i64 {
            let id = l.add_net(format!("n{i}"));
            let t0 = l.add_terminal(id, "s");
            l.add_pin(t0, Pin::floating(Point::new(2 + i, 2))).unwrap();
            let t1 = l.add_terminal(id, "t");
            l.add_pin(t1, Pin::floating(Point::new(96, 60 + i * 5)))
                .unwrap();
        }
        l
    }

    #[test]
    fn parallel_matches_serial_byte_for_byte() {
        let l = grid_of_nets();
        let serial = BatchRouter::gridless(&l, RouterConfig::default())
            .with_batch(BatchConfig::serial())
            .route_all();
        let parallel = BatchRouter::gridless(&l, RouterConfig::default())
            .with_batch(BatchConfig {
                parallel: true,
                threads: Some(4),
                ..BatchConfig::default()
            })
            .route_all();
        assert_eq!(serial.routes.len(), parallel.routes.len());
        for (a, b) in serial.routes.iter().zip(&parallel.routes) {
            assert_eq!(a.net, b.net);
            assert_eq!(a.stats, b.stats);
            for (ca, cb) in a.connections.iter().zip(&b.connections) {
                assert_eq!(ca.polyline, cb.polyline);
                assert_eq!(ca.cost, cb.cost);
            }
        }
    }

    #[test]
    fn engines_are_swappable_behind_the_batch_router() {
        let l = grid_of_nets();
        let config = RouterConfig::default();
        let gridless = BatchRouter::gridless(&l, config.clone()).route_all();
        let grid = BatchRouter::new(&l, config.clone(), GridEngine::default()).route_all();
        let probes = BatchRouter::new(&l, config, HightowerEngine::default()).route_all();
        assert_eq!(gridless.routed_count(), 6);
        assert_eq!(grid.routed_count(), 6);
        // Both complete optimal engines agree on total wire length for
        // two-pin nets at pitch 1.
        assert_eq!(gridless.wire_length(), grid.wire_length());
        // The prober may fail some nets but whatever it routed is legal
        // wire at least as long as the optimum.
        for r in &probes.routes {
            let reference = gridless.route_for(r.id).unwrap();
            assert!(r.wire_length() >= reference.wire_length());
        }
    }

    #[test]
    fn two_pass_skips_rerouting_for_congestion_blind_engines() {
        let mut l = Layout::new(Rect::new(0, 0, 200, 120).unwrap());
        l.add_cell("a", Rect::new(40, 20, 95, 100).unwrap())
            .unwrap();
        l.add_cell("b", Rect::new(105, 20, 160, 100).unwrap())
            .unwrap();
        for i in 0..4i64 {
            let x = 96 + i * 2;
            let id = l.add_net(format!("n{i}"));
            let t0 = l.add_terminal(id, "s");
            l.add_pin(t0, Pin::floating(Point::new(x, 0))).unwrap();
            let t1 = l.add_terminal(id, "t");
            l.add_pin(t1, Pin::floating(Point::new(x, 110))).unwrap();
        }
        let mut config = RouterConfig::default();
        config.wire_pitch(5).congestion_weight(6);
        let grid = BatchRouter::new(&l, config.clone(), GridEngine::default());
        let report = grid.route_two_pass();
        assert!(report.before.total_overflow() > 0, "scenario must congest");
        assert_eq!(
            report.rerouted, 0,
            "congestion-blind engine must not reroute"
        );
        // The gridless engine on the same instance does relieve the alley.
        let gridless = BatchRouter::gridless(&l, config);
        let report = gridless.route_two_pass();
        assert!(report.rerouted > 0);
        assert!(report.after.total_overflow() < report.before.total_overflow());
    }

    #[test]
    fn thread_override_is_respected_and_harmless() {
        let l = grid_of_nets();
        let base = BatchRouter::gridless(&l, RouterConfig::default())
            .with_batch(BatchConfig::serial())
            .route_all();
        for threads in [1usize, 2, 7, 64] {
            let routed = BatchRouter::gridless(&l, RouterConfig::default())
                .with_batch(BatchConfig {
                    parallel: true,
                    threads: Some(threads),
                    ..BatchConfig::default()
                })
                .route_all();
            assert_eq!(
                routed.wire_length(),
                base.wire_length(),
                "{threads} threads"
            );
            assert_eq!(routed.stats(), base.stats(), "{threads} threads");
        }
    }
}
