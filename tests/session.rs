//! The differential harness guarding [`RoutingSession`]'s incremental
//! paths: net-by-net routing, rip-up + reroute, mutation +
//! `reroute_dirty`, the budgeted all-or-nothing entry points and the
//! two-pass flow on congestion-blind engines must commit exactly what a
//! fresh session over the same state routes — same polylines, same
//! costs, same statistics, same failure lists.
//!
//! The sweeps reuse the seeded-loop style of `tests/plane_equivalence.rs`
//! (`gcr::workload` instances are fully determined by their arguments),
//! so any failure reproduces from its case number alone.

use gcr::prelude::*;
use gcr::router::congestion::CongestionAnalysis;
use gcr::router::{apply_eco, parse_eco, NegotiationConfig};
use gcr::workload::scaling_instance;
use std::time::{Duration, Instant};

fn assert_routing_identical(reference: &GlobalRouting, other: &GlobalRouting, what: &str) {
    assert_eq!(
        reference.routes.len(),
        other.routes.len(),
        "{what}: route count"
    );
    for (a, b) in reference.routes.iter().zip(&other.routes) {
        assert_eq!(a.net, b.net, "{what}");
        assert_eq!(a.id, b.id, "{what}");
        assert_eq!(a.stats, b.stats, "{what}: net {}", a.net);
        assert_eq!(a.tree.points(), b.tree.points(), "{what}: net {}", a.net);
        assert_eq!(
            a.tree.segments(),
            b.tree.segments(),
            "{what}: net {}",
            a.net
        );
        assert_eq!(
            a.connections.len(),
            b.connections.len(),
            "{what}: net {}",
            a.net
        );
        for (ca, cb) in a.connections.iter().zip(&b.connections) {
            assert_eq!(ca.polyline, cb.polyline, "{what}: net {}", a.net);
            assert_eq!(ca.cost, cb.cost, "{what}: net {}", a.net);
            assert_eq!(ca.stats, cb.stats, "{what}: net {}", a.net);
        }
    }
    // A session lists failures in net-id order.
    assert_eq!(reference.failures, other.failures, "{what}: failures");
}

fn session_for<E: RoutingEngine + Clone>(
    layout: &Layout,
    engine: &E,
    batch: BatchConfig,
) -> RoutingSession<E> {
    RoutingSession::builder(layout.clone())
        .config(RouterConfig::default())
        .engine(engine.clone())
        .batch(batch)
        .build()
}

/// route → rip_up → reroute must reproduce the fresh route
/// byte-identically: warm arenas and committed neighbours may not
/// influence a net's result.
#[test]
fn rip_up_reroute_is_deterministic() {
    let cases = (0..6u64).map(|case| (format!("case {case}"), scaling_instance(2, 2, 6, 2, case)));
    for (what, layout) in cases.chain(scaling_instances()) {
        for batch in [BatchConfig::serial(), BatchConfig::sharded()] {
            let mut session = session_for(&layout, &GridlessEngine, batch);
            let fresh = session.route_all();
            // Rip up every other net, then every net, then the last one
            // alone, rerouting between.
            let ids = session.layout().net_ids();
            for id in ids.iter().step_by(2) {
                assert_eq!(session.rip_up(*id), fresh.route_for(*id).is_some());
            }
            session.reroute_dirty();
            assert_routing_identical(
                &fresh,
                &session.routing(),
                &format!("{what}: partial rip-up"),
            );
            for id in &ids {
                session.rip_up(*id);
            }
            let outcome = session.reroute_dirty();
            assert_eq!(outcome.attempted, ids.len(), "{what}");
            assert_routing_identical(&fresh, &session.routing(), &format!("{what}: full rip-up"));
            let victim = *ids.last().expect("instance has nets");
            assert!(session.rip_up(victim), "{what}: the last net routed");
            assert_eq!(session.reroute_dirty().attempted, 1, "{what}");
            assert_routing_identical(&fresh, &session.routing(), &format!("{what}: one net"));
        }
    }
}

/// The 30-, 60- and 120-net workload scaling instances.
fn scaling_instances() -> [(String, Layout); 3] {
    [
        ("2x2-30", 2, 2, 24, 6),
        ("4x4-60", 4, 4, 48, 12),
        ("6x6-120", 6, 6, 96, 24),
    ]
    .map(|(label, rows, cols, two_pin, multi)| {
        (
            label.to_string(),
            scaling_instance(rows, cols, two_pin, multi, 0),
        )
    })
}

/// Session warmth: rerouting one ripped-up net in a long-lived session
/// must beat a cold full route (a fresh session and `route_all`), min
/// against min over ten samples each, on every scaling instance and
/// both plane indexes.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a timing bar, meaningful only optimized; runs under cargo test --release"
)]
fn warm_single_net_reroute_beats_a_cold_full_route() {
    const SAMPLES: usize = 10;
    for (label, layout) in scaling_instances() {
        for index in [PlaneIndexKind::Flat, PlaneIndexKind::Sharded] {
            let what = format!("{label}/{index:?}");
            let batch = BatchConfig::serial().with_index(index);
            let mut warm = session_for(&layout, &GridlessEngine, batch);
            let fresh = warm.route_all();
            let mut cold = Duration::MAX;
            for _ in 0..SAMPLES {
                let start = Instant::now();
                let routing = session_for(&layout, &GridlessEngine, batch).route_all();
                cold = cold.min(start.elapsed());
                assert_eq!(routing.stats(), fresh.stats(), "{what}: run must be stable");
            }
            let victim = *layout.net_ids().last().expect("instance has nets");
            let mut reroute = Duration::MAX;
            for _ in 0..SAMPLES {
                warm.rip_up(victim);
                let start = Instant::now();
                let outcome = warm.reroute_dirty();
                reroute = reroute.min(start.elapsed());
                assert_eq!(outcome.rerouted, 1, "{what}: the victim must reroute");
            }
            assert_eq!(
                warm.routing().stats(),
                fresh.stats(),
                "{what}: warm state stable"
            );
            assert!(
                reroute < cold,
                "{what}: a warm single-net reroute ({reroute:?}) must beat a cold full route ({cold:?})"
            );
        }
    }
}

fn assert_analysis_identical(a: &CongestionAnalysis, b: &CongestionAnalysis, what: &str) {
    assert_eq!(a.passages, b.passages, "{what}: passages");
    assert_eq!(a.users, b.users, "{what}: users");
    assert_eq!(a.pitch, b.pitch, "{what}: pitch");
}

/// Congestion-blind engines (`supports_congestion == false`) must make
/// `route_two_pass` a pure first pass: zero reroutes, no dirty marks left
/// behind, both analyses equal to the plain first pass's congestion, and
/// the committed state indistinguishable from `route_all`.
#[test]
fn two_pass_on_congestion_blind_engines_never_reroutes() {
    let engines: Vec<(&str, gcr::service::BoxedEngine)> = vec![
        ("grid-astar", Box::new(GridEngine::default())),
        ("lee-moore", Box::new(GridEngine::lee_moore())),
        ("hightower", Box::new(HightowerEngine::default())),
    ];
    for (name, engine) in engines {
        assert!(
            !engine.capabilities().supports_congestion,
            "{name}: precondition"
        );
        for case in 0..3u64 {
            let layout = scaling_instance(2, 2, 8, 2, case);
            let mut config = RouterConfig::default();
            config.wire_pitch(4).congestion_weight(5);
            let build = || {
                RoutingSession::builder(layout.clone())
                    .config(config.clone())
                    .engine(&*engine)
                    .batch(BatchConfig::serial())
                    .build()
            };
            let mut session = build();
            let report = session.route_two_pass();
            let what = format!("{name}/case {case}");
            assert_eq!(report.rerouted, 0, "{what}: the reroute is skipped");
            assert!(
                session.dirty_nets().is_empty(),
                "{what}: no dirty marks may leak from the skipped pass"
            );
            assert_eq!(session.stats().reroutes, 0, "{what}: no reroute counted");
            // The committed state is exactly the plain first pass.
            let mut plain = build();
            let routed = plain.route_all();
            let congestion = plain.congestion();
            assert_analysis_identical(&report.before, &congestion, &what);
            assert_analysis_identical(&report.after, &congestion, &what);
            assert_routing_identical(&routed, &report.routing, &what);
        }
    }
}

/// After a mutation + `reroute_dirty`, every re-routed net must be
/// byte-identical to what a **fresh** session over the mutated layout
/// computes, and every committed route (refreshed or not) must be legal
/// wire on the mutated plane. The mutations: an ECO (nudge a macro, drop
/// a blockage, add a net), and a small blockage whose position walks
/// with the case, so the bounding-box dirty test sees hits, misses and
/// boundary touches.
#[test]
fn mutations_converge_to_the_fresh_route() {
    for case in 0..4u64 {
        let layout = scaling_instance(2, 2, 6, 1, case);
        let cell = layout
            .cell_by_name("m0_0")
            .expect("scaling instances name their macros m<r>_<c>");
        let offset = 2 + (case as i64) * 7;
        let walking = Rect::new(offset, offset, offset + 4, offset + 4).unwrap();
        for batch in [BatchConfig::serial(), BatchConfig::sharded()] {
            let what = format!("case {case}/{:?}", batch.index);
            let mut session = session_for(&layout, &GridlessEngine, batch);
            session.route_all();
            session.move_cell(cell, 3, 2).unwrap();
            session
                .add_obstacle("eco_blk", Rect::new(2, 2, 6, 6).unwrap())
                .unwrap();
            let added = session.add_two_pin_net(
                "eco_net",
                Point::new(0, 0),
                Point::new(0, session.layout().bounds().ymax()),
            );
            assert!(session.is_dirty(added), "{what}");
            assert_converges_to_fresh(session, batch, &format!("{what}: eco"));

            let mut session = session_for(&layout, &GridlessEngine, batch);
            session.route_all();
            session.add_obstacle("blk", walking).unwrap();
            assert_converges_to_fresh(session, batch, &format!("{what}: blockage"));
        }
    }
}

/// Re-routes the dirty set of a mutated `session` and checks it against
/// a fresh session over the mutated layout.
fn assert_converges_to_fresh(mut session: RoutingSession, batch: BatchConfig, what: &str) {
    let dirty = session.dirty_nets();
    session.reroute_dirty();
    assert!(session.dirty_nets().is_empty(), "{what}");
    let fresh = session_for(session.layout(), &GridlessEngine, batch).route_all();
    for id in session.layout().net_ids() {
        let mine = session.route(id);
        let theirs = fresh.route_for(id);
        assert_eq!(mine.is_some(), theirs.is_some(), "{what} {id}");
        let (Some(mine), Some(theirs)) = (mine, theirs) else {
            continue;
        };
        assert!(
            mine.tree
                .segments()
                .iter()
                .all(|s| session.plane().segment_free(s.a(), s.b())),
            "{what} {id}: stale illegal wire"
        );
        if dirty.contains(&id) {
            // Re-routed nets match the fresh computation exactly.
            assert_eq!(mine.tree.segments(), theirs.tree.segments(), "{what} {id}");
            assert_eq!(mine.stats, theirs.stats, "{what} {id}");
        }
    }
}

/// [`SessionStats`] must agree with the assembled [`GlobalRouting`] at
/// every point of the lifecycle, for every engine.
#[test]
fn stats_agree_with_the_assembled_routing() {
    let layout = scaling_instance(2, 2, 6, 2, 11);
    let engines: Vec<(&str, gcr::service::BoxedEngine)> = vec![
        ("gridless", Box::new(GridlessEngine)),
        ("grid", Box::new(GridEngine::default())),
        ("hightower", Box::new(HightowerEngine::default())),
    ];
    for (name, engine) in engines {
        let mut session = RoutingSession::builder(layout.clone())
            .config(RouterConfig::default())
            .engine(engine)
            .build();
        let zero = session.stats();
        assert_eq!(zero.nets, layout.nets().len(), "{name}");
        assert_eq!(zero.unrouted, zero.nets, "{name}");
        assert_eq!(zero.reroutes, 0, "{name}");
        let routing = session.route_all();
        let stats = session.stats();
        assert_eq!(stats.routed, routing.routed_count(), "{name}");
        assert_eq!(stats.failed, routing.failures.len(), "{name}");
        assert_eq!(stats.unrouted, 0, "{name}");
        assert_eq!(stats.wire_length, routing.wire_length(), "{name}");
        assert_eq!(stats.reroutes, 0, "{name}: first attempts");
        // A full re-route: every net's second attempt is a reroute.
        session.mark_all_dirty();
        assert_eq!(session.stats().dirty, stats.nets, "{name}");
        session.reroute_dirty();
        let again = session.stats();
        assert_eq!(again.reroutes, stats.nets as u64, "{name}");
        assert_eq!(again.wire_length, stats.wire_length, "{name}: stable");
        assert_eq!(again.dirty, 0, "{name}");
    }
}

/// The shipped demo change list replays cleanly against the demo layout
/// and converges to the fresh route of the mutated design.
#[test]
fn demo_eco_fixture_replays_cleanly() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/demo.gcl"))
        .expect("demo fixture");
    let layout = gcr::layout::format::parse(&text).expect("demo parses");
    let eco_text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/demo.eco"))
            .expect("eco fixture");
    let ops = parse_eco(&eco_text).expect("eco parses");
    assert!(ops.len() >= 4, "fixture exercises several op kinds");

    let mut session = RoutingSession::builder(layout)
        .index(PlaneIndexKind::Sharded)
        .build();
    session.route_all();
    let report = apply_eco(&mut session, &ops).expect("replay");
    assert_eq!(report.failed, 0);
    assert!(report.rerouted > 0);
    assert!(session.dirty_nets().is_empty());
    session
        .layout()
        .validate()
        .expect("mutated layout stays valid");

    // Every net was touched by the list's flushes here, so the whole
    // committed state equals a cold route of the mutated layout.
    let fresh = RoutingSession::builder(session.layout().clone())
        .index(PlaneIndexKind::Sharded)
        .build()
        .route_all();
    assert_routing_identical(&fresh, &session.routing(), "demo eco");
}

// ------------------------------------------------- budget cancellation

/// A cancelled request must commit nothing — the session stays
/// byte-identical to its pre-request state — and a fresh retry must
/// produce exactly what an uninterrupted, unbudgeted run produces,
/// across {flat, sharded} × {serial, parallel}.
#[test]
fn cancelled_route_all_rolls_back_and_retry_is_identical() {
    for case in 0..4u64 {
        let layout = scaling_instance(2, 2, 5, 2, case);
        for (batch, label) in [
            (BatchConfig::serial(), "flat-serial"),
            (
                BatchConfig::serial().with_index(PlaneIndexKind::Sharded),
                "sharded-serial",
            ),
            (BatchConfig::default(), "flat-parallel"),
            (BatchConfig::sharded(), "sharded-parallel"),
        ] {
            let what = format!("{label}/case {case}");
            let reference = session_for(&layout, &GridlessEngine, batch).route_all();

            let mut session = session_for(&layout, &GridlessEngine, batch);
            // A pre-raised cancel flag: deterministic immediate stop.
            let cancelled = Budget::unlimited();
            cancelled.cancel();
            match session.route_all_budgeted(&cancelled) {
                Err(RouteError::Cancelled { reason, .. }) => {
                    assert_eq!(reason, CancelReason::Cancelled, "{what}");
                }
                other => panic!("{what}: expected Cancelled, got {other:?}"),
            }
            assert!(
                session.routing().routes.is_empty(),
                "{what}: cancel commits nothing"
            );

            // A zero expansion ceiling: cancels on the first check.
            let starved = Budget::unlimited().with_expansion_ceiling(0);
            match session.route_all_budgeted(&starved) {
                Err(RouteError::Cancelled { reason, .. }) => {
                    assert_eq!(reason, CancelReason::ExpansionCeiling, "{what}");
                }
                other => panic!("{what}: expected Cancelled, got {other:?}"),
            }
            assert!(session.routing().routes.is_empty(), "{what}");

            // Retry under a generous budget: the budget stops work, it
            // never steers it — identical to the unbudgeted run.
            let generous = Budget::unlimited().with_deadline(std::time::Duration::from_secs(600));
            let routed = session.route_all_budgeted(&generous).unwrap();
            assert_routing_identical(&reference, &routed, &format!("{what}: retry"));
            assert_routing_identical(&reference, &session.routing(), &format!("{what}: state"));
        }
    }
}

/// Cancelling a dirty reroute keeps every ripped net dirty (nothing is
/// half-committed), and the retried reroute reproduces the fresh route.
#[test]
fn cancelled_reroute_dirty_preserves_the_dirty_set() {
    for batch in [BatchConfig::serial(), BatchConfig::sharded()] {
        let layout = scaling_instance(2, 2, 6, 2, 1);
        let mut session = session_for(&layout, &GridlessEngine, batch);
        let fresh = session.route_all();
        let ids = session.layout().net_ids();
        for id in ids.iter().step_by(2) {
            session.rip_up(*id);
        }
        let dirty_before = session.dirty_nets();
        assert!(!dirty_before.is_empty());

        let cancelled = Budget::unlimited();
        cancelled.cancel();
        assert!(matches!(
            session.reroute_dirty_budgeted(&cancelled),
            Err(RouteError::Cancelled { .. })
        ));
        assert_eq!(
            session.dirty_nets(),
            dirty_before,
            "cancelled reroute leaves the dirty set intact"
        );

        session
            .reroute_dirty_budgeted(&Budget::unlimited())
            .unwrap();
        assert_routing_identical(&fresh, &session.routing(), "retried reroute");
    }
}

/// A congested channel (the alley from `tests/service.rs`): three nets
/// through a 2-wide gap, so negotiation reroutes for real.
fn alley_layout() -> Layout {
    let mut text = String::from(
        "gcl 1\nbounds 0 0 60 40\nspacing 1\n\
         cell a 10 10 29 30\ncell b 31 10 50 30\n",
    );
    for (i, x) in [29i64, 30, 31].into_iter().enumerate() {
        text.push_str(&format!(
            "net n{i}\nterminal s\npin - {x} 0\nterminal t\npin - {x} 40\n"
        ));
    }
    gcr::layout::format::parse(&text).unwrap()
}

/// A cancelled negotiation restores the checkpoint byte-identically,
/// and the retried negotiation equals an uninterrupted one.
#[test]
fn cancelled_negotiation_restores_the_checkpoint() {
    let layout = alley_layout();
    for index in [PlaneIndexKind::Flat, PlaneIndexKind::Sharded] {
        let mut twin = RoutingSession::builder(layout.clone())
            .config(RouterConfig::default())
            .index(index)
            .build();
        let mut session = RoutingSession::builder(layout.clone())
            .config(RouterConfig::default())
            .index(index)
            .build();
        session.route_all();
        twin.route_all();

        let cancelled = Budget::unlimited();
        cancelled.cancel();
        assert!(matches!(
            session.route_negotiated_budgeted(&NegotiationConfig::default(), &cancelled),
            Err(RouteError::Cancelled { .. })
        ));
        assert_routing_identical(
            &twin.routing(),
            &session.routing(),
            &format!("{index:?}: checkpoint restore"),
        );

        let report = session
            .route_negotiated_budgeted(&NegotiationConfig::default(), &Budget::unlimited())
            .unwrap();
        let twin_report = twin.route_negotiated(&NegotiationConfig::default());
        assert!(
            twin_report.before.total_overflow() > 0,
            "the alley must congest for this test to mean anything"
        );
        assert_eq!(report.iterations, twin_report.iterations);
        assert_eq!(
            report.after.total_overflow(),
            twin_report.after.total_overflow()
        );
        assert_routing_identical(
            &twin.routing(),
            &session.routing(),
            &format!("{index:?}: retry equals uninterrupted"),
        );
    }
}
