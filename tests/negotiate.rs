//! The quality bar and determinism contract for negotiated-congestion
//! routing (`route_negotiated`), measured against the paper's two-pass
//! flow on congested instances.
//!
//! Instance parameters are pinned by measurement: a `max_expansions`
//! budget tight enough that the two-pass surcharge blows it for some
//! nets (committing them as Failed), wide enough that every net routes
//! at true cost. Negotiation repairs its surcharge casualties inside
//! the loop, so it never hands back fewer routed nets than the plain
//! first pass — that is the structural advantage these tests assert.

mod common;

use gcr::layout::format;
use gcr::prelude::*;
use gcr::router::NegotiationConfig;
use gcr::service::dump_routing;
use gcr::workload::generator::{generate, GeneratorParams};

fn dense_fixture() -> Layout {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/dense.gcl"))
        .expect("fixture present");
    format::parse(&text).expect("fixture parses")
}

/// A high-utilization generated instance (util ≈ 0.85 requested; the
/// achievable placement lands around 0.26–0.28 with dense net crossings).
fn congested_instance(nets: usize, seed: u64) -> Layout {
    let mut params = GeneratorParams::with_nets(nets, seed);
    params.utilization = 0.85;
    generate(&params)
}

/// The pinned congested config: pitch 2 makes corridor capacities
/// bite, `congestion_weight` 20 pushes two-pass reroutes hard, and the
/// 1200-expansion budget routes every net at true cost but collapses
/// under heavy surcharge.
fn congested_config() -> RouterConfig {
    let mut config = RouterConfig::default();
    config
        .wire_pitch(2)
        .congestion_weight(20)
        .max_expansions(Some(1200));
    config
}

fn session_with(layout: &Layout, config: &RouterConfig, batch: BatchConfig) -> RoutingSession {
    RoutingSession::builder(layout.clone())
        .config(config.clone())
        .batch(batch)
        .build()
}

/// Cancelled requests rolled back so far, process-wide. No test in this
/// file cancels one.
fn rollbacks() -> f64 {
    gcr::telemetry::parse_exposition(&gcr::telemetry::global().expose())
        .iter()
        .find(|s| s.name == "gcr_core_rollbacks_total")
        .map_or(0.0, |s| s.value)
}

fn assert_routing_identical(reference: &GlobalRouting, other: &GlobalRouting, what: &str) {
    assert_eq!(
        reference.routes.len(),
        other.routes.len(),
        "{what}: route count"
    );
    for (a, b) in reference.routes.iter().zip(&other.routes) {
        assert_eq!(a.net, b.net, "{what}");
        assert_eq!(a.stats, b.stats, "{what}: net {}", a.net);
        assert_eq!(a.tree.points(), b.tree.points(), "{what}: net {}", a.net);
        assert_eq!(
            a.tree.segments(),
            b.tree.segments(),
            "{what}: net {}",
            a.net
        );
    }
    let sorted = |r: &GlobalRouting| {
        let mut f: Vec<(NetId, String)> = r
            .failures
            .iter()
            .map(|(id, e)| (*id, e.to_string()))
            .collect();
        f.sort();
        f
    };
    assert_eq!(sorted(reference), sorted(other), "{what}: failures");
}

/// The seeded congested sweep. On every instance negotiation must leave
/// strictly fewer failed nets than two-pass, total overflow no worse,
/// and reach zero overflow within the default cap where two-pass leaves
/// residue. Each instance is checked on a thread of its own.
#[test]
fn negotiation_beats_two_pass_on_seeded_congested_instances() {
    let config = &congested_config();
    let instances = [
        (64usize, 0u64),
        (64, 1),
        (64, 3),
        (120, 0),
        (120, 1),
        (120, 2),
    ];
    let two_pass_failed_total: usize = std::thread::scope(|scope| {
        let checks: Vec<_> = instances
            .into_iter()
            .map(|(nets, seed)| scope.spawn(move || beats_two_pass(nets, seed, config)))
            .collect();
        checks
            .into_iter()
            .map(|check| check.join().expect("instance check passed"))
            .sum()
    });
    assert!(two_pass_failed_total > 0);
}

/// One instance of the congested sweep; returns the nets two-pass failed.
fn beats_two_pass(nets: usize, seed: u64, config: &RouterConfig) -> usize {
    let what = format!("{nets} nets / seed {seed}");
    let layout = &congested_instance(nets, seed);
    let two_pass = session_with(layout, config, BatchConfig::serial()).route_two_pass();
    let negotiated = session_with(layout, config, BatchConfig::serial())
        .route_negotiated(&NegotiationConfig::default());
    assert!(
        two_pass.after.total_overflow() > 0,
        "{what}: two-pass must leave residual overflow for the bar to mean anything"
    );
    assert!(
        !two_pass.routing.failures.is_empty(),
        "{what}: the surcharge must cost two-pass at least one net"
    );
    assert!(
        negotiated.routing.failures.len() < two_pass.routing.failures.len(),
        "{what}: strictly fewer failed nets ({} vs {})",
        negotiated.routing.failures.len(),
        two_pass.routing.failures.len()
    );
    assert!(
        negotiated.after.total_overflow() <= two_pass.after.total_overflow(),
        "{what}: no more overflow ({} vs {})",
        negotiated.after.total_overflow(),
        two_pass.after.total_overflow()
    );
    assert!(
        negotiated.converged && negotiated.is_clean(),
        "{what}: negotiation reaches zero overflow where two-pass does not"
    );
    assert!(negotiated.routing.failures.is_empty(), "{what}");
    two_pass.routing.failures.len()
}

/// The 1k-net congested panel: negotiation never fails more nets than
/// two-pass there either.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a 1k-net negotiation is slow unoptimized; runs under cargo test --release"
)]
fn negotiation_fails_no_more_nets_than_two_pass_at_1k() {
    let layout = congested_instance(1000, 0);
    let config = congested_config();
    let two_pass = session_with(&layout, &config, BatchConfig::default()).route_two_pass();
    let negotiated = session_with(&layout, &config, BatchConfig::default())
        .route_negotiated(&NegotiationConfig::default());
    assert!(
        negotiated.routing.failures.len() <= two_pass.routing.failures.len(),
        "negotiation failed {} nets, two-pass {}",
        negotiated.routing.failures.len(),
        two_pass.routing.failures.len()
    );
}

/// The shipped dense fixture. Its alley capacity is genuinely
/// insufficient, so zero overflow is unreachable — each config
/// isolates one half of the quality bar.
#[test]
fn dense_fixture_quality_bar() {
    let dense = dense_fixture();
    // Tight budget: the two-pass surcharge blows the expansion budget
    // and commits a previously-routed net as Failed; negotiation
    // repairs its casualties in-loop and keeps every routable net.
    let mut tight = RouterConfig::default();
    tight
        .wire_pitch(6)
        .congestion_weight(8)
        .max_expansions(Some(175));
    let two_pass = session_with(&dense, &tight, BatchConfig::serial()).route_two_pass();
    let negotiated = session_with(&dense, &tight, BatchConfig::serial())
        .route_negotiated(&NegotiationConfig::default());
    assert!(
        !two_pass.routing.failures.is_empty(),
        "two-pass loses at least one routable net to the surcharge"
    );
    assert!(
        negotiated.routing.failures.is_empty(),
        "negotiation keeps every net the plain pass routed"
    );
    assert!(negotiated.routing.failures.len() < two_pass.routing.failures.len());

    // Wider pitch: both flows route everything; negotiation's iterated
    // pushes settle strictly less overflow than the one-shot reroute,
    // via keep-best (the capped loop ends mid-oscillation and rolls
    // back to the best state it visited).
    let mut wide = RouterConfig::default();
    wide.wire_pitch(9)
        .congestion_weight(10)
        .max_expansions(Some(200));
    let two_pass = session_with(&dense, &wide, BatchConfig::serial()).route_two_pass();
    let mut session = session_with(&dense, &wide, BatchConfig::serial());
    let rollbacks_before = rollbacks();
    let negotiated = session.route_negotiated(&NegotiationConfig::default());
    assert!(two_pass.routing.failures.is_empty());
    assert!(negotiated.routing.failures.is_empty());
    assert!(
        negotiated.after.total_overflow() < two_pass.after.total_overflow(),
        "negotiation settles less overflow ({} vs {})",
        negotiated.after.total_overflow(),
        two_pass.after.total_overflow()
    );
    assert!(
        negotiated.restored.is_some(),
        "this config is pinned to exercise the keep-best rollback"
    );
    assert_eq!(
        rollbacks(),
        rollbacks_before,
        "a keep-best restore is not a cancelled request"
    );

    // Keep-best restores the best round exactly: the session equals a
    // fresh one whose loop stopped at that round, counters included.
    let k = negotiated.restored.unwrap();
    let mut stopped = session_with(&dense, &wide, BatchConfig::serial());
    let mut capped = NegotiationConfig::default();
    capped.max_iters(k);
    let at_best = stopped.route_negotiated(&capped);
    assert_eq!(at_best.restored, None, "round {k} is the capped run's best");
    assert_eq!(
        dump_routing(&session.routing()),
        dump_routing(&stopped.routing())
    );
    assert_eq!(negotiated.after.users, at_best.after.users);
    assert_eq!(session.stats(), stopped.stats());
    for id in dense.net_ids() {
        assert_eq!(session.explain_net(id), stopped.explain_net(id), "{id}");
    }
}

/// Acceptance: negotiation results are byte-identical across
/// serial/parallel schedules and flat/sharded plane indexes.
#[test]
fn negotiation_is_schedule_and_index_invariant() {
    let config = congested_config();
    let mut tight = RouterConfig::default();
    tight
        .wire_pitch(6)
        .congestion_weight(8)
        .max_expansions(Some(175));
    let cases: Vec<(String, Layout, RouterConfig)> = vec![
        (
            "64 nets / seed 1".into(),
            congested_instance(64, 1),
            config.clone(),
        ),
        ("dense".into(), dense_fixture(), tight),
    ];
    for (what, layout, config) in &cases {
        let reference = session_with(
            layout,
            config,
            BatchConfig::serial().with_index(PlaneIndexKind::Flat),
        )
        .route_negotiated(&NegotiationConfig::default());
        for (batch, label) in [
            (
                BatchConfig::serial().with_index(PlaneIndexKind::Sharded),
                "sharded-serial",
            ),
            (
                BatchConfig::default().with_index(PlaneIndexKind::Flat),
                "flat-parallel",
            ),
            (
                BatchConfig::default().with_index(PlaneIndexKind::Sharded),
                "sharded-parallel",
            ),
        ] {
            let report =
                session_with(layout, config, batch).route_negotiated(&NegotiationConfig::default());
            let what = format!("{what}/{label}");
            assert_eq!(report.iterations, reference.iterations, "{what}");
            assert_eq!(report.rerouted, reference.rerouted, "{what}");
            assert_eq!(report.converged, reference.converged, "{what}");
            assert_eq!(report.restored, reference.restored, "{what}");
            assert_eq!(report.before.users, reference.before.users, "{what}");
            assert_eq!(report.after.users, reference.after.users, "{what}");
            assert_routing_identical(&reference.routing, &report.routing, &what);
        }
    }
}

/// A session that already routed and answered congestion queries (its
/// arenas and committed state warm) must negotiate byte-identically to
/// a fresh one. Its first pass reroutes every net with the committed
/// route as an incumbent, so only the nodes created may fall.
#[test]
fn warm_cache_negotiation_equals_cold() {
    let layout = congested_instance(64, 1);
    let config = congested_config();
    for (batch, label) in [
        (
            BatchConfig::serial().with_index(PlaneIndexKind::Sharded),
            "sharded",
        ),
        (
            BatchConfig::serial().with_index(PlaneIndexKind::Flat),
            "flat",
        ),
    ] {
        let cold =
            session_with(&layout, &config, batch).route_negotiated(&NegotiationConfig::default());
        // Warm: route everything, run congestion queries, then negotiate
        // on the warm session.
        let mut warm_session = session_with(&layout, &config, batch);
        warm_session.route_all();
        let _ = warm_session.congestion();
        let _ = warm_session.congestion();
        let warm = warm_session.route_negotiated(&NegotiationConfig::default());
        assert_eq!(warm.iterations, cold.iterations, "{label}");
        assert_eq!(warm.rerouted, cold.rerouted, "{label}");
        assert_eq!(warm.restored, cold.restored, "{label}");
        assert_eq!(warm.after.users, cold.after.users, "{label}");
        let fell = common::assert_warm_matches_cold(&cold.routing, &warm.routing, label);
        assert!(fell > 0, "{label}: the committed routes must save nodes");
    }
}

/// A congestion-blind engine never iterates: the report is the plain
/// first pass, zero rounds, zero reroutes.
#[test]
fn congestion_blind_engines_do_not_iterate() {
    let layout = congested_instance(64, 0);
    let mut session = RoutingSession::builder(layout.clone())
        .config(congested_config())
        .engine(HightowerEngine::default())
        .build();
    let report = session.route_negotiated(&NegotiationConfig::default());
    assert_eq!(report.iterations, 0);
    assert_eq!(report.rerouted, 0);
    assert_eq!(report.restored, None);
    assert!(!report.converged, "overflow remains by construction");
    assert_eq!(
        report.after.total_overflow(),
        report.before.total_overflow()
    );
    let fresh = RoutingSession::builder(layout)
        .config(congested_config())
        .engine(HightowerEngine::default())
        .build()
        .route_all();
    assert_routing_identical(&fresh, &report.routing, "blind engine first pass");
}
