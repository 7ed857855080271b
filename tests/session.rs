//! The differential harness guarding [`RoutingSession`]'s incremental
//! paths: net-by-net routing, rip-up + reroute, mutation +
//! `reroute_dirty`, the budgeted all-or-nothing entry points and the
//! two-pass flow on congestion-blind engines must commit exactly what a
//! fresh session over the same state routes — same polylines, same
//! costs, same expansions, same failure lists. A rerouted net searches
//! with its previous route as an incumbent bound, so against a cold
//! session only `generated`, `touched` and `max_open` may fall
//! (`common::assert_warm_matches_cold`); runs with the same history
//! compare every statistic.
//!
//! The sweeps reuse the seeded-loop style of `tests/plane_equivalence.rs`
//! (`gcr::workload` instances are fully determined by their arguments),
//! so any failure reproduces from its case number alone.

mod common;

use common::{assert_net_matches_cold, assert_warm_matches_cold};
use gcr::prelude::*;
use gcr::router::congestion::CongestionAnalysis;
use gcr::router::{apply_eco, parse_eco, NegotiationConfig};
use gcr::workload::{random_free_point, rng_for, scaling_instance};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
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

/// Serial over the reference plane, and the default schedule (parallel,
/// over the sharded plane): the two corners of the schedule × plane
/// square the session tests cover.
fn flat_serial_and_default() -> [BatchConfig; 2] {
    [
        BatchConfig::serial().with_index(PlaneIndexKind::Flat),
        BatchConfig::default(),
    ]
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
/// influence a net's result, and the ripped route only lets the search
/// create fewer nodes.
#[test]
fn rip_up_reroute_is_deterministic() {
    let cases = (0..6u64).map(|case| (format!("case {case}"), scaling_instance(2, 2, 6, 2, case)));
    let mut fell = 0;
    for (what, layout) in cases.chain(scaling_instances()) {
        for batch in flat_serial_and_default() {
            let mut session = session_for(&layout, &GridlessEngine, batch);
            let fresh = session.route_all();
            // Rip up every other net, then every net, then the last one
            // alone, rerouting between.
            let ids = session.layout().net_ids();
            for id in ids.iter().step_by(2) {
                assert_eq!(session.rip_up(*id), fresh.route_for(*id).is_some());
            }
            session.reroute_dirty();
            let routing = session.routing();
            fell += assert_warm_matches_cold(&fresh, &routing, &format!("{what}: partial rip-up"));
            for id in &ids {
                session.rip_up(*id);
            }
            let outcome = session.reroute_dirty();
            assert_eq!(outcome.attempted, ids.len(), "{what}");
            let routing = session.routing();
            fell += assert_warm_matches_cold(&fresh, &routing, &format!("{what}: full rip-up"));
            let victim = *ids.last().expect("instance has nets");
            assert!(session.rip_up(victim), "{what}: the last net routed");
            assert_eq!(session.reroute_dirty().attempted, 1, "{what}");
            let routing = session.routing();
            fell += assert_warm_matches_cold(&fresh, &routing, &format!("{what}: one net"));
        }
    }
    assert!(fell > 0, "the ripped routes must save generated nodes");
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
            let fell = assert_warm_matches_cold(&fresh, &warm.routing(), &what);
            assert!(
                fell > 0,
                "{what}: the ripped route must save generated nodes"
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
    let mut fell = 0;
    for case in 0..4u64 {
        let layout = scaling_instance(2, 2, 6, 1, case);
        let cell = layout
            .cell_by_name("m0_0")
            .expect("scaling instances name their macros m<r>_<c>");
        let offset = 2 + (case as i64) * 7;
        let walking = Rect::new(offset, offset, offset + 4, offset + 4).unwrap();
        for batch in flat_serial_and_default() {
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
            fell += assert_converges_to_fresh(session, batch, &format!("{what}: eco"));

            let mut session = session_for(&layout, &GridlessEngine, batch);
            session.route_all();
            session.add_obstacle("blk", walking).unwrap();
            fell += assert_converges_to_fresh(session, batch, &format!("{what}: blockage"));
        }
    }
    assert!(
        fell > 0,
        "routes still legal after a mutation must save nodes"
    );
}

/// Re-routes the dirty set of a mutated `session` and checks it against
/// a fresh session over the mutated layout. Returns how much `generated`
/// fell on the rerouted nets.
fn assert_converges_to_fresh(mut session: RoutingSession, batch: BatchConfig, what: &str) -> usize {
    let dirty = session.dirty_nets();
    session.reroute_dirty();
    assert!(session.dirty_nets().is_empty(), "{what}");
    let fresh = session_for(session.layout(), &GridlessEngine, batch).route_all();
    let mut fell = 0;
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
            fell += assert_net_matches_cold(theirs, mine, what);
        }
    }
    fell
}

/// What [`mutate`] did.
enum Mutation {
    /// Ripped up this net.
    RipUp(NetId),
    /// Moved a cell or added a blockage: the plane changed.
    Plane,
    /// Added a net, or left the layout as it was.
    Other,
}

/// One random mutation of `session`: a rip-up, a cell nudge that stays
/// inside the die, a small blockage, or a new two-pin net. `tag` makes
/// the names it adds unique.
fn mutate(session: &mut RoutingSession, rng: &mut StdRng, tag: &str) -> Mutation {
    let bounds = session.layout().bounds();
    match rng.gen_range(0..4u32) {
        0 => {
            let ids = session.layout().net_ids();
            let id = ids[rng.gen_range(0..ids.len())];
            session.rip_up(id);
            Mutation::RipUp(id)
        }
        1 => {
            let cells = session.layout().cells();
            let picked = &cells[rng.gen_range(0..cells.len())];
            let (dx, dy) = (rng.gen_range(-4..=4), rng.gen_range(-4..=4));
            let moved = picked.rect().translate(dx, dy);
            let cell = session.layout().cell_by_name(picked.name()).unwrap();
            if !bounds.contains_rect(&moved) {
                return Mutation::Other;
            }
            session.move_cell(cell, dx, dy).unwrap();
            Mutation::Plane
        }
        2 => {
            let at = random_free_point(session.plane(), rng);
            let (w, h) = (rng.gen_range(1..6), rng.gen_range(1..6));
            let x = at.x.min(bounds.xmax() - w);
            let y = at.y.min(bounds.ymax() - h);
            let rect = Rect::new(x, y, x + w, y + h).unwrap();
            session.add_obstacle(format!("blk{tag}"), rect).unwrap();
            Mutation::Plane
        }
        _ => {
            let a = random_free_point(session.plane(), rng);
            let b = random_free_point(session.plane(), rng);
            session.add_two_pin_net(format!("net{tag}"), a, b);
            Mutation::Other
        }
    }
}

/// Seeded ECO streams of `rip_up`, `move_cell`, `add_obstacle` and
/// `add_two_pin_net`, several mutations between `reroute_dirty` calls,
/// so a ripped route is kept across later mutations and must be
/// re-validated on a changed plane before it may bound a search. Every
/// rerouted net equals a fresh session's route of the mutated layout —
/// polylines, costs, `expanded`, failures — on both plane indexes, and
/// the streams must both accept and reject incumbents, among them
/// ripped routes kept across a later plane change.
#[test]
fn seeded_eco_streams_reroute_like_a_fresh_session() {
    let (mut accepted, mut rejected, mut fell) = (0, 0, 0);
    let (mut kept_accepted, mut kept_rejected) = (0, 0);
    for case in 0..4u64 {
        let layout = scaling_instance(2, 2, 8, 3, case);
        for index in [PlaneIndexKind::Flat, PlaneIndexKind::Sharded] {
            let batch = BatchConfig::serial().with_index(index);
            let mut session = session_for(&layout, &GridlessEngine, batch);
            session.route_all();
            let mut rng = rng_for("eco-stream", case);
            for step in 0..8 {
                let what = format!("case {case}/{index:?}/step {step}");
                // The nets that hand their reroute a route: routed now,
                // whether a mutation below rips them up or not.
                let held: BTreeSet<NetId> = session
                    .layout()
                    .net_ids()
                    .into_iter()
                    .filter(|&id| session.route(id).is_some())
                    .collect();
                // Ripped nets whose kept route a later mutation of this
                // batch may have invalidated.
                let (mut ripped, mut kept) = (Vec::new(), BTreeSet::new());
                for k in 0..rng.gen_range(2..6) {
                    match mutate(&mut session, &mut rng, &format!("{step}_{k}")) {
                        Mutation::RipUp(id) => ripped.push(id),
                        Mutation::Plane => kept.extend(ripped.iter().copied()),
                        Mutation::Other => {}
                    }
                }
                let dirty = session.dirty_nets();
                session.reroute_dirty();
                let fresh = session_for(session.layout(), &GridlessEngine, batch).route_all();
                for id in dirty {
                    let failure = |e: Option<&RouteError>| e.map(ToString::to_string);
                    let theirs = fresh.failures.iter().find(|(f, _)| *f == id);
                    assert_eq!(
                        failure(session.failure(id)),
                        failure(theirs.map(|(_, e)| e)),
                        "{what}: {id}"
                    );
                    let (Some(mine), Some(theirs)) = (session.route(id), fresh.route_for(id))
                    else {
                        continue;
                    };
                    fell += assert_net_matches_cold(theirs, mine, &what);
                    if held.contains(&id) {
                        let (yes, no) = (
                            mine.stats.seeded,
                            mine.connections.len() - mine.stats.seeded,
                        );
                        (accepted, rejected) = (accepted + yes, rejected + no);
                        if kept.contains(&id) {
                            (kept_accepted, kept_rejected) =
                                (kept_accepted + yes, kept_rejected + no);
                        }
                    } else {
                        assert_eq!(mine.stats.seeded, 0, "{what}: {id} held no route");
                    }
                }
            }
        }
    }
    assert!(accepted > 0, "the streams must keep some old routes valid");
    assert!(rejected > 0, "the streams must invalidate some old routes");
    assert!(
        kept_accepted > 0 && kept_rejected > 0,
        "ripped routes kept across a plane change must be both accepted and \
         rejected: {kept_accepted} / {kept_rejected}"
    );
    assert!(fell > 0, "accepted incumbents must save nodes");
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
        for id in session.layout().net_ids() {
            session.mark_dirty(id);
        }
        assert_eq!(session.stats().dirty, stats.nets, "{name}");
        session.reroute_dirty();
        let again = session.stats();
        assert_eq!(again.reroutes, stats.nets as u64, "{name}");
        assert_eq!(again.wire_length, stats.wire_length, "{name}: stable");
        assert_eq!(again.dirty, 0, "{name}");
    }
}

/// What a [`dirty_and_stats_digest`] stream reached, so the test can
/// require that every transition it pins was exercised.
#[derive(Debug, Default)]
struct StreamCoverage {
    /// Steps folded into the digest.
    folds: usize,
    /// `move_cell` calls made while some net held a committed failure.
    moves_with_failures: usize,
    /// Obstacles dropped on a pin its net's wire does not reach.
    pins_covered: usize,
    /// Capped negotiations that went back to their best round.
    keep_best_restores: usize,
}

/// A seeded stream of session transitions on `layout`, with the dirty set
/// and [`SessionStats`] folded into one FNV digest after every step. The
/// stream mixes `rip_up`, `move_cell` there and back and one way,
/// `add_obstacle` (some dropped on a pin off its net's wire),
/// `add_two_pin_net`, `route_net` of an unroutable one-terminal net,
/// `mark_dirty` and `reroute_dirty`, and once each `route_two_pass` and
/// a capped `route_negotiated`.
fn dirty_and_stats_digest(
    layout: &Layout,
    index: PlaneIndexKind,
    config: &RouterConfig,
    capped: &NegotiationConfig,
    steps: usize,
) -> (String, StreamCoverage) {
    use gcr::search::FnvHasher;
    use std::hash::Hasher;

    let mut session = RoutingSession::builder(layout.clone())
        .config(config.clone())
        .index(index)
        .serial()
        .build();
    let mut fnv = FnvHasher::default();
    let mut folds = 0;
    let mut fold = |session: &RoutingSession, step: &str| {
        let line = format!("{step}: {:?} {:?}\n", session.dirty_nets(), session.stats());
        fnv.write(line.as_bytes());
        folds += 1;
    };
    let mut coverage = StreamCoverage::default();
    let mut rng = rng_for("dirty-stats-stream", 0);
    let bounds = session.layout().bounds();
    session.route_all();
    fold(&session, "route_all");
    for step in 0..steps {
        let tag = format!("s{step}");
        if step == steps / 3 {
            let _ = session.route_two_pass();
            fold(&session, "two-pass");
            continue;
        }
        if step == 2 * steps / 3 {
            let report = session.route_negotiated(capped);
            coverage.keep_best_restores += usize::from(report.restored.is_some());
            fold(&session, "negotiated");
            continue;
        }
        let ids = session.layout().net_ids();
        match rng.gen_range(0..10u32) {
            0 => {
                session.rip_up(ids[rng.gen_range(0..ids.len())]);
                fold(&session, "rip_up");
            }
            op @ (1 | 2) => {
                let cells = session.layout().cells();
                let picked = &cells[rng.gen_range(0..cells.len())];
                let (dx, dy) = (rng.gen_range(-3..=3), rng.gen_range(-3..=3));
                if !bounds.contains_rect(&picked.rect().translate(dx, dy)) {
                    continue;
                }
                let cell = session.layout().cell_by_name(picked.name()).unwrap();
                let failed = session.stats().failed > 0;
                coverage.moves_with_failures += usize::from(failed);
                session.move_cell(cell, dx, dy).unwrap();
                fold(&session, "move");
                if op == 1 {
                    coverage.moves_with_failures += usize::from(failed);
                    session.move_cell(cell, -dx, -dy).unwrap();
                    fold(&session, "move back");
                }
            }
            3 => {
                let at = random_free_point(session.plane(), &mut rng);
                let (w, h) = (rng.gen_range(1..5), rng.gen_range(1..5));
                let x = at.x.min(bounds.xmax() - w);
                let y = at.y.min(bounds.ymax() - h);
                let rect = Rect::new(x, y, x + w, y + h).unwrap();
                session.add_obstacle(format!("blk{tag}"), rect).unwrap();
                fold(&session, "obstacle");
            }
            4 => {
                // A pin of a multi-pin terminal that the wire does not
                // reach still belongs to the route's tree and its box.
                let off_route: Vec<Point> = ids
                    .iter()
                    .filter_map(|&id| {
                        let route = session.route(id)?;
                        let net = session.layout().net(id)?;
                        net.all_pins()
                            .map(|pin| pin.position)
                            .find(|&p| !route.tree.segments().iter().any(|s| s.contains(p)))
                    })
                    .collect();
                let Some(&p) = off_route.get(rng.gen_range(0..off_route.len().max(1))) else {
                    continue;
                };
                let rect = Rect::new(
                    (p.x - 1).max(bounds.xmin()),
                    (p.y - 1).max(bounds.ymin()),
                    (p.x + 1).min(bounds.xmax()),
                    (p.y + 1).min(bounds.ymax()),
                )
                .unwrap();
                session.add_obstacle(format!("pin{tag}"), rect).unwrap();
                coverage.pins_covered += 1;
                fold(&session, "pin obstacle");
            }
            5 => {
                let a = random_free_point(session.plane(), &mut rng);
                let b = random_free_point(session.plane(), &mut rng);
                session.add_two_pin_net(format!("net{tag}"), a, b);
                fold(&session, "add net");
            }
            6 => {
                let lonely = session.add_net(format!("lonely{tag}"));
                let terminal = session.add_terminal(lonely, "only");
                let at = random_free_point(session.plane(), &mut rng);
                session.add_pin(terminal, Pin::floating(at)).unwrap();
                assert!(session.route_net(lonely).is_err(), "one terminal");
                fold(&session, "route_net");
            }
            7 => {
                session.mark_dirty(ids[rng.gen_range(0..ids.len())]);
                fold(&session, "mark_dirty");
            }
            _ => {
                session.reroute_dirty();
                fold(&session, "reroute_dirty");
            }
        }
    }
    coverage.folds = folds;
    (format!("{:016x}", fnv.finish()), coverage)
}

/// The dirty sets and [`SessionStats`] of seeded mutation streams are
/// pinned step by step, on the 120-net scaling instance and on the demo
/// fixture (whose `power` net has a multi-pin terminal), flat and
/// sharded alike. A change to how a mutation marks nets, how a commit
/// counts, or how a checkpoint restores moves a digest.
#[test]
fn mutation_streams_pin_dirty_sets_and_stats() {
    let demo = gcr::layout::format::parse(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/demo.gcl"))
            .expect("demo fixture"),
    )
    .expect("demo parses");
    let (_, six) = scaling_instances()[2].clone();
    // Pitch 1 congests the 120-net die; the expansion cap keeps its
    // negotiation cheap and makes surcharged searches fail. Pitch 10
    // congests the demo once the stream has added nets.
    let mut tight = RouterConfig::default();
    tight
        .wire_pitch(1)
        .congestion_weight(4)
        .max_expansions(Some(200));
    let mut wide = RouterConfig::default();
    wide.wire_pitch(10).congestion_weight(4);
    let mut capped = NegotiationConfig::default();
    capped.max_iters(2);
    let cases = [
        ("6x6-120", six, tight, 200, "3a19528063e049dc"),
        ("demo", demo, wide, 240, "ca01d131f8183d26"),
    ];
    for (what, layout, config, steps, pinned) in cases {
        for index in [PlaneIndexKind::Flat, PlaneIndexKind::Sharded] {
            let what = format!("{what}/{index:?}");
            let (digest, coverage) =
                dirty_and_stats_digest(&layout, index, &config, &capped, steps);
            assert!(coverage.folds >= 200, "{what}: {coverage:?}");
            assert!(coverage.moves_with_failures > 0, "{what}: {coverage:?}");
            assert!(coverage.pins_covered > 0, "{what}: {coverage:?}");
            assert!(coverage.keep_best_restores > 0, "{what}: {coverage:?}");
            assert_eq!(digest, pinned, "{what}");
        }
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
    let fell = assert_warm_matches_cold(&fresh, &session.routing(), "demo eco");
    assert!(
        fell > 0,
        "the moved and ripped nets' old routes must save nodes"
    );
}

// ------------------------------------------------- budget cancellation

/// A cancelled request must commit nothing — the session stays
/// byte-identical to its pre-request state — and a fresh retry must
/// produce exactly what an uninterrupted run under an unlimited budget
/// produces: for the gridless engine across {flat, sharded} × {serial,
/// parallel}, and for every baseline engine on one schedule, each
/// compared with its own engine's uncancelled route.
#[test]
fn cancelled_route_all_rolls_back_and_retry_is_identical() {
    let schedules = [
        (
            BatchConfig::serial().with_index(PlaneIndexKind::Flat),
            "flat-serial",
        ),
        (
            BatchConfig::serial().with_index(PlaneIndexKind::Sharded),
            "sharded-serial",
        ),
        (
            BatchConfig::default().with_index(PlaneIndexKind::Flat),
            "flat-parallel",
        ),
        (BatchConfig::default(), "sharded-parallel"),
    ];
    let engines: Vec<(&str, gcr::service::BoxedEngine)> = vec![
        ("gridless", Box::new(GridlessEngine)),
        ("grid-astar", Box::new(GridEngine::default())),
        ("lee-moore", Box::new(GridEngine::lee_moore())),
        ("hightower", Box::new(HightowerEngine::default())),
    ];
    for case in 0..4u64 {
        let layout = scaling_instance(2, 2, 5, 2, case);
        for (name, engine) in &engines {
            let engine = &**engine;
            let schedules = if *name == "gridless" {
                &schedules[..]
            } else {
                &schedules[..1]
            };
            for &(batch, label) in schedules {
                let what = format!("{name}/{label}/case {case}");
                let reference = session_for(&layout, &engine, batch).route_all();

                let mut session = session_for(&layout, &engine, batch);
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
                // never steers it — identical to the uncancelled run.
                let generous = Budget::unlimited().with_deadline(Duration::from_secs(600));
                let routed = session.route_all_budgeted(&generous).unwrap();
                assert_routing_identical(&reference, &routed, &format!("{what}: retry"));
                assert_routing_identical(&reference, &session.routing(), &format!("{what}: state"));
            }
        }
    }
}

/// A shared expansion ceiling smaller than one net's search stops grid
/// A\* and Lee–Moore inside that search, not only between nets: the
/// request is cancelled with the ceiling as its reason, the search
/// charged the meter, and nothing is committed.
#[test]
fn grid_searches_stop_mid_net_under_a_shared_ceiling() {
    let mut layout = Layout::new(Rect::new(0, 0, 200, 200).unwrap());
    layout
        .add_cell("wall", Rect::new(50, 20, 150, 180).unwrap())
        .unwrap();
    layout.add_two_pin_net("across", Point::new(5, 100), Point::new(195, 100));
    for engine in [GridEngine::default(), GridEngine::lee_moore()] {
        let name = engine.capabilities().name;
        let mut session = session_for(&layout, &engine, BatchConfig::serial());
        let before = session.stats();
        let ceiling = Budget::unlimited().with_expansion_ceiling(10);
        match session.route_all_budgeted(&ceiling) {
            Err(RouteError::Cancelled { reason, .. }) => {
                assert_eq!(reason, CancelReason::ExpansionCeiling, "{name}");
            }
            other => panic!("{name}: expected Cancelled, got {other:?}"),
        }
        assert!(
            ceiling.expansions() >= 10,
            "{name}: the search itself charged {} expansion(s)",
            ceiling.expansions()
        );
        assert_eq!(session.stats(), before, "{name}: nothing committed");
        assert!(session.routing().routes.is_empty(), "{name}");
        assert!(session.routing().failures.is_empty(), "{name}");
    }
}

/// No budget a cancelled request installed in the session's pooled
/// scratches reaches a later call: the plain calls that follow a
/// cancelled `route_all_budgeted` route exactly what a fresh session
/// routes.
#[test]
fn plain_calls_after_a_cancelled_request_route_normally() {
    let layout = scaling_instance(2, 2, 5, 2, 0);
    for batch in flat_serial_and_default() {
        let what = format!("{:?}", batch.index);
        let mut fresh = session_for(&layout, &GridlessEngine, batch);
        let reference = fresh.route_all();
        let mut session = session_for(&layout, &GridlessEngine, batch);
        let cancel = |session: &mut RoutingSession| {
            let cancelled = Budget::unlimited();
            cancelled.cancel();
            assert!(session.route_all_budgeted(&cancelled).is_err(), "{what}");
        };
        let net = session.layout().net_ids()[0];

        cancel(&mut session);
        let strawman = session.route_net_pin_tree(net).expect("pin tree routes");
        let expected = fresh.route_net_pin_tree(net).unwrap();
        assert_eq!(strawman.tree.segments(), expected.tree.segments(), "{what}");
        assert_eq!(strawman.stats, expected.stats, "{what}");

        cancel(&mut session);
        let routed = session.route_net(net).expect("net routes").clone();
        let expected = reference.route_for(net).unwrap();
        assert_eq!(routed.tree.segments(), expected.tree.segments(), "{what}");
        assert_eq!(routed.stats, expected.stats, "{what}");

        cancel(&mut session);
        for id in session.layout().net_ids() {
            session.mark_dirty(id);
        }
        let outcome = session.reroute_dirty();
        assert_eq!(outcome.attempted, layout.nets().len(), "{what}");
        let fell = assert_warm_matches_cold(&reference, &session.routing(), &what);
        assert!(fell > 0, "{what}: the routed net's route must save nodes");
    }
}

/// Cancelling a dirty reroute keeps every ripped net dirty (nothing is
/// half-committed), and the retried reroute reproduces the fresh route.
#[test]
fn cancelled_reroute_dirty_preserves_the_dirty_set() {
    for batch in flat_serial_and_default() {
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
        let fell = assert_warm_matches_cold(&fresh, &session.routing(), "retried reroute");
        assert!(fell > 0, "the ripped routes must save nodes");
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

/// Cancelled requests rolled back so far, process-wide (other tests
/// here may add to it concurrently, never subtract).
fn rollbacks() -> f64 {
    gcr::telemetry::parse_exposition(&gcr::telemetry::global().expose())
        .iter()
        .find(|s| s.name == "gcr_core_rollbacks_total")
        .map_or(0.0, |s| s.value)
}

/// A cancelled negotiation restores the checkpoint byte-identically,
/// counts as a rollback, and the retried negotiation equals an
/// uninterrupted one.
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
        let rollbacks_before = rollbacks();
        assert!(matches!(
            session.route_negotiated_budgeted(&NegotiationConfig::default(), &cancelled),
            Err(RouteError::Cancelled { .. })
        ));
        assert!(rollbacks() > rollbacks_before, "the rollback is counted");
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
