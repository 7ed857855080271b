//! The whole pipeline must be bit-for-bit deterministic: same seeds, same
//! layouts, same routes, same statistics. (Deterministic tie-breaking in
//! the search engine is what makes the reproduction's numbers stable.)

use gcr::layout::format;
use gcr::prelude::*;
use gcr::workload::generator::{generate, GeneratorParams};
use gcr::workload::{netlists, placements, rng_for, scaling_instance};

fn build() -> Layout {
    let params = placements::MacroGridParams {
        rows: 3,
        cols: 3,
        ..Default::default()
    };
    let mut layout = placements::macro_grid(&params, &mut rng_for("determinism", 0));
    let mut rng = rng_for("determinism", 1);
    netlists::add_two_pin_nets(&mut layout, 15, &mut rng);
    netlists::add_multi_terminal_nets(&mut layout, 5, 3, &mut rng);
    layout
}

#[test]
fn generation_is_reproducible() {
    assert_eq!(format::write(&build()), format::write(&build()));
}

fn gridless(layout: &Layout) -> RoutingSession {
    RoutingSession::gridless(layout.clone(), RouterConfig::default())
}

fn with_batch<E: RoutingEngine>(
    layout: &Layout,
    engine: E,
    batch: BatchConfig,
) -> RoutingSession<E> {
    RoutingSession::builder(layout.clone())
        .engine(engine)
        .batch(batch)
        .build()
}

/// The serial reference schedule, over the reference plane (linear
/// scans); the sessions compared with it take the default, sharded one.
fn reference() -> BatchConfig {
    BatchConfig::serial().with_index(PlaneIndexKind::Flat)
}

fn on_threads(threads: usize) -> BatchConfig {
    BatchConfig {
        threads: Some(threads),
        ..BatchConfig::default()
    }
}

#[test]
fn routing_is_reproducible() {
    let mut session = gridless(&build());
    let a = session.route_all();
    let b = session.route_all();
    assert_eq!(a.routed_count(), b.routed_count());
    assert_eq!(a.wire_length(), b.wire_length());
    for (ra, rb) in a.routes.iter().zip(&b.routes) {
        assert_eq!(ra.net, rb.net);
        assert_eq!(ra.wire_length(), rb.wire_length());
        assert_eq!(ra.stats.expanded, rb.stats.expanded);
        for (ca, cb) in ra.connections.iter().zip(&rb.connections) {
            assert_eq!(ca.polyline, cb.polyline);
        }
    }
}

#[test]
fn routing_is_stable_across_router_instances() {
    let layout = build();
    let r1 = gridless(&layout).route_all();
    let r2 = gridless(&layout).route_all();
    assert_eq!(r1.wire_length(), r2.wire_length());
}

/// The schedule invariant: a parallel session must produce the exact
/// routes, costs, statistics and failure lists of a serial one — the
/// schedule is unobservable because nets are independent and the merge
/// is in stable net-id order. The serial reference routes over the
/// reference plane, the parallel sessions over the default sharded one.
/// Checked on the seeded macro grid and on the 40- and 120-net workload
/// scaling instances.
#[test]
fn parallel_batch_output_is_byte_identical_to_serial() {
    for (label, layout) in [
        ("macro grid", build()),
        ("4x4-40", scaling_instance(4, 4, 32, 8, 0)),
        ("6x6-120", scaling_instance(6, 6, 96, 24, 0)),
    ] {
        let serial = with_batch(&layout, GridlessEngine, reference()).route_all();
        for threads in [2usize, 3, 8, 32] {
            let parallel = with_batch(&layout, GridlessEngine, on_threads(threads)).route_all();
            assert_routing_identical(&serial, &parallel, &format!("{label}, {threads} threads"));
        }
        // And with the machine-default thread count.
        let parallel = gridless(&layout).route_all();
        assert_routing_identical(&serial, &parallel, &format!("{label}, default threads"));
    }
}

/// The same invariant must hold for every engine behind the trait, not
/// just the gridless one.
#[test]
fn parallel_equivalence_holds_for_all_engines() {
    let layout = build();
    let serial_grid = with_batch(&layout, GridEngine::default(), reference()).route_all();
    let parallel_grid = with_batch(&layout, GridEngine::default(), on_threads(4)).route_all();
    assert_routing_identical(&serial_grid, &parallel_grid, "grid, 4 threads");

    let serial_ht = with_batch(&layout, HightowerEngine::default(), reference()).route_all();
    let parallel_ht = with_batch(&layout, HightowerEngine::default(), on_threads(4)).route_all();
    assert_routing_identical(&serial_ht, &parallel_ht, "hightower, 4 threads");
}

fn assert_routing_identical(a: &GlobalRouting, b: &GlobalRouting, what: &str) {
    assert_eq!(a.routed_count(), b.routed_count(), "{what}");
    assert_eq!(a.wire_length(), b.wire_length(), "{what}");
    assert_eq!(a.stats(), b.stats(), "{what}");
    assert_eq!(a.failures.len(), b.failures.len(), "{what}");
    for ((ida, ea), (idb, eb)) in a.failures.iter().zip(&b.failures) {
        assert_eq!(ida, idb, "{what}");
        assert_eq!(ea, eb, "{what}");
    }
    for (ra, rb) in a.routes.iter().zip(&b.routes) {
        assert_eq!(ra.net, rb.net, "{what}");
        assert_eq!(ra.id, rb.id, "{what}");
        assert_eq!(ra.stats, rb.stats, "{what}");
        assert_eq!(ra.connections.len(), rb.connections.len(), "{what}");
        for (ca, cb) in ra.connections.iter().zip(&rb.connections) {
            assert_eq!(ca.polyline, cb.polyline, "{what}");
            assert_eq!(ca.cost, cb.cost, "{what}");
            assert_eq!(ca.stats, cb.stats, "{what}");
        }
    }
}

/// Asserts two outcomes of routing one net are byte-identical.
fn assert_net_identical(
    a: Result<&NetRoute, RouteError>,
    b: Result<&NetRoute, RouteError>,
    what: &str,
) {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.stats, b.stats, "{what}: net {}", a.net);
            assert_eq!(a.tree.points(), b.tree.points(), "{what}");
            assert_eq!(a.tree.segments(), b.tree.segments(), "{what}");
            assert_eq!(a.connections.len(), b.connections.len(), "{what}");
            for (ca, cb) in a.connections.iter().zip(&b.connections) {
                assert_eq!(ca.polyline, cb.polyline, "{what}");
                assert_eq!(ca.cost, cb.cost, "{what}");
                assert_eq!(ca.stats, cb.stats, "{what}");
            }
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}"),
        (a, b) => panic!("{what}: outcomes diverge: {a:?} vs {b:?}"),
    }
}

/// Arena-poisoning differential: one serial session routing interleaved,
/// differently-shaped nets through its ONE pooled [`SearchScratch`] must
/// be byte-identical to each net routed on a fresh session — for all
/// engines, over both plane indexes. This is the contract that lets a
/// session keep one arena per worker across calls: reuse amortizes
/// allocations and must never leak state.
#[test]
fn reused_scratch_is_byte_identical_to_fresh_for_all_engines_and_indexes() {
    let layout = build();
    let engines: Vec<(&str, Box<dyn RoutingEngine>)> = vec![
        ("gridless", Box::new(GridlessEngine)),
        ("grid-astar", Box::new(GridEngine::default())),
        ("lee-moore", Box::new(GridEngine::lee_moore())),
        ("hightower", Box::new(HightowerEngine::default())),
    ];
    for (name, engine) in &engines {
        for index in [PlaneIndexKind::Flat, PlaneIndexKind::Sharded] {
            let batch = BatchConfig::serial().with_index(index);
            let mut reused = with_batch(&layout, engine, batch);
            // Every net in reverse id order (multi-terminal nets first,
            // then the two-pin ones), so each search inherits a dirty
            // arena shaped by a differently-sized predecessor.
            for id in layout.net_ids().into_iter().rev() {
                let mut fresh = with_batch(&layout, engine, batch);
                assert_net_identical(
                    reused.route_net(id),
                    fresh.route_net(id),
                    &format!("{name}/{index:?}: {id}"),
                );
            }
        }
    }
}

/// The pooled scratch must also leave `route_all` unchanged: a serial
/// session's `route_all` (one scratch across every net) against one
/// fresh session routing the nets one by one, and against each net
/// routed on a fresh session of its own. Checked on the seeded macro
/// grid and on the 30-, 60- and 120-net workload scaling instances.
#[test]
fn batch_route_all_matches_per_net_fresh_scratch_routing() {
    for (label, layout) in [
        ("macro grid", build()),
        ("2x2-30", scaling_instance(2, 2, 24, 6, 0)),
        ("4x4-60", scaling_instance(4, 4, 48, 12, 0)),
        ("6x6-120", scaling_instance(6, 6, 96, 24, 0)),
    ] {
        let routing = with_batch(&layout, GridlessEngine, reference()).route_all();
        let mut net_by_net = gridless(&layout);
        for r in &routing.routes {
            let what = format!("{label}: route_all vs net by net");
            assert_net_identical(Ok(r), net_by_net.route_net(r.id), &what);
            let mut fresh = gridless(&layout);
            let what = format!("{label}: route_all vs fresh");
            assert_net_identical(Ok(r), fresh.route_net(r.id), &what);
        }
        assert!(routing.routed_count() > 0, "{label}");
    }
}

/// The scale-tier generator is part of the reproducibility contract too:
/// the same parameters must emit a byte-identical `.gcl`, the emitted
/// text must survive a parse → write round trip unchanged, and the
/// reparsed instance must route exactly like the original.
#[test]
fn generator_gcl_roundtrip_is_byte_identical_and_routes_identically() {
    let params = GeneratorParams::with_nets(120, 7);
    let a = generate(&params);
    let b = generate(&params);
    let text = format::write(&a);
    assert_eq!(text, format::write(&b), "same params ⇒ same .gcl bytes");
    let reparsed = format::parse(&text).expect("generator output parses");
    assert_eq!(text, format::write(&reparsed), "write∘parse is identity");
    let ra = gridless(&a).route_all();
    let rb = gridless(&reparsed).route_all();
    assert_eq!(ra.routed_count(), rb.routed_count());
    assert_eq!(ra.wire_length(), rb.wire_length());
    assert_eq!(ra.stats().expanded, rb.stats().expanded);
}

/// The search-work pin: a serial default-config session route of the seeded
/// 120-net die must do exactly this much A\* work and emit exactly this
/// `DUMP`, on both plane indexes. A\* creates a node only for an offer
/// it pops and expands, so `touched` is `expanded` plus one per search
/// that reaches a goal (8054 + 137); `generated` counts the ray stops it
/// placed on OPEN. Pruning that leaves out stops A\* would throw away
/// moves `generated` only; a change to the successors' order or cost, or
/// to the A\* tie-breaks, moves `expanded` or the digest too.
///
/// The second leg rips every net up and reroutes the dirty set: each
/// search then starts with the ripped route as its incumbent bound, so
/// it expands the same 8054 nodes and emits the same `DUMP` while
/// placing far fewer stops: rays are cut as they are cast.
#[test]
fn search_work_and_route_digest_are_pinned() {
    use gcr::search::FnvHasher;
    use gcr::service::dump_routing;
    use std::hash::Hasher;

    let digest = |routing: &GlobalRouting| {
        let mut fnv = FnvHasher::default();
        fnv.write(dump_routing(routing).as_bytes());
        format!("{:016x}", fnv.finish())
    };
    let work = |routing: &GlobalRouting| {
        let stats = routing.stats();
        (stats.expanded, stats.generated, stats.touched, stats.seeded)
    };
    let layout = generate(&GeneratorParams::with_nets(120, 4));
    for index in [PlaneIndexKind::Flat, PlaneIndexKind::Sharded] {
        let batch = BatchConfig::serial().with_index(index);
        let mut session = with_batch(&layout, GridlessEngine, batch);
        let routing = session.route_all();
        let searches = routing.routes.iter().map(|r| r.connections.len()).sum();
        assert_eq!(work(&routing), (8054, 134_439, 8_191, 0), "{index:?}");
        assert_eq!(digest(&routing), "6a6f9d3a0b6ea838", "{index:?}");

        for id in layout.net_ids() {
            session.rip_up(id);
        }
        session.reroute_dirty();
        let rerouted = session.routing();
        assert_eq!(
            work(&rerouted),
            (8054, 34_403, 8_191, searches),
            "{index:?}: rip-up + reroute"
        );
        assert_eq!(digest(&rerouted), "6a6f9d3a0b6ea838", "{index:?}");
    }
}

#[test]
fn format_roundtrip_preserves_routing_results() {
    let layout = build();
    let reparsed = format::parse(&format::write(&layout)).expect("own output parses");
    let a = gridless(&layout).route_all();
    let b = gridless(&reparsed).route_all();
    assert_eq!(a.wire_length(), b.wire_length());
    assert_eq!(a.stats().expanded, b.stats().expanded);
}

/// The cold 1k die's work pin: the serial sharded route of the die the
/// `cold-1k` benchmark times (generator seed 3; its net order does not
/// change the work) expands exactly 188,498 nodes, creates one more per
/// connection for the goal it reaches, and places exactly this many ray
/// stops on OPEN. Work counters catch an algorithmic regression on any
/// host, where wall time cannot.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a 1k-net die is slow unoptimized; runs under cargo test --release"
)]
fn cold_1k_die_search_work_is_pinned() {
    let layout = generate(&GeneratorParams::with_nets(1000, 3));
    let batch = BatchConfig::serial().with_index(PlaneIndexKind::Sharded);
    let routing = with_batch(&layout, GridlessEngine, batch).route_all();
    let stats = routing.stats();
    let searches: usize = routing.routes.iter().map(|r| r.connections.len()).sum();
    assert_eq!(routing.routed_count(), 1000);
    assert_eq!(stats.expanded, 188_498);
    assert_eq!(stats.touched, stats.expanded + searches);
    assert_eq!((stats.generated, stats.touched), (6_832_818, 189_657));
}
