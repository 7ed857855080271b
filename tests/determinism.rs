//! The whole pipeline must be bit-for-bit deterministic: same seeds, same
//! layouts, same routes, same statistics. (Deterministic tie-breaking in
//! the search engine is what makes the reproduction's numbers stable.)

use gcr::layout::format;
use gcr::prelude::*;
use gcr::workload::generator::{generate, GeneratorParams};
use gcr::workload::{netlists, placements, rng_for};

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

#[test]
fn routing_is_reproducible() {
    let layout = build();
    let router = GlobalRouter::new(&layout, RouterConfig::default());
    let a = router.route_all();
    let b = router.route_all();
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
    let r1 = GlobalRouter::new(&layout, RouterConfig::default()).route_all();
    let r2 = GlobalRouter::new(&layout, RouterConfig::default()).route_all();
    assert_eq!(r1.wire_length(), r2.wire_length());
}

/// The tentpole invariant: the parallel batch pipeline must produce the
/// exact routes, costs, statistics and failure lists of the serial one —
/// the schedule is unobservable because nets are independent and the
/// merge is in stable net-id order.
#[test]
fn parallel_batch_output_is_byte_identical_to_serial() {
    let layout = build();
    let serial = BatchRouter::gridless(&layout, RouterConfig::default())
        .with_batch(BatchConfig::serial())
        .route_all();
    for threads in [2usize, 3, 8, 32] {
        let parallel = BatchRouter::gridless(&layout, RouterConfig::default())
            .with_batch(BatchConfig {
                parallel: true,
                threads: Some(threads),
                ..BatchConfig::default()
            })
            .route_all();
        assert_routing_identical(&serial, &parallel, threads);
    }
    // And with the machine-default thread count.
    let parallel = BatchRouter::gridless(&layout, RouterConfig::default()).route_all();
    assert_routing_identical(&serial, &parallel, 0);
}

/// The same invariant must hold for every engine behind the trait, not
/// just the gridless one.
#[test]
fn parallel_equivalence_holds_for_all_engines() {
    let layout = build();
    let config = RouterConfig::default();
    let serial_grid = BatchRouter::new(&layout, config.clone(), GridEngine::default())
        .with_batch(BatchConfig::serial())
        .route_all();
    let parallel_grid = BatchRouter::new(&layout, config.clone(), GridEngine::default())
        .with_batch(BatchConfig {
            parallel: true,
            threads: Some(4),
            ..BatchConfig::default()
        })
        .route_all();
    assert_routing_identical(&serial_grid, &parallel_grid, 4);

    let serial_ht = BatchRouter::new(&layout, config.clone(), HightowerEngine::default())
        .with_batch(BatchConfig::serial())
        .route_all();
    let parallel_ht = BatchRouter::new(&layout, config, HightowerEngine::default())
        .with_batch(BatchConfig {
            parallel: true,
            threads: Some(4),
            ..BatchConfig::default()
        })
        .route_all();
    assert_routing_identical(&serial_ht, &parallel_ht, 4);
}

/// The two-pass congestion flow reroutes in parallel too; its report must
/// also be schedule independent.
#[test]
fn parallel_two_pass_matches_serial_two_pass() {
    let layout = build();
    let serial = BatchRouter::gridless(&layout, RouterConfig::default())
        .with_batch(BatchConfig::serial())
        .route_two_pass();
    let parallel = BatchRouter::gridless(&layout, RouterConfig::default())
        .with_batch(BatchConfig {
            parallel: true,
            threads: Some(4),
            ..BatchConfig::default()
        })
        .route_two_pass();
    assert_eq!(serial.rerouted, parallel.rerouted);
    assert_eq!(
        serial.before.total_overflow(),
        parallel.before.total_overflow()
    );
    assert_eq!(
        serial.after.total_overflow(),
        parallel.after.total_overflow()
    );
    assert_routing_identical(&serial.routing, &parallel.routing, 4);
}

fn assert_routing_identical(a: &GlobalRouting, b: &GlobalRouting, threads: usize) {
    assert_eq!(a.routed_count(), b.routed_count(), "{threads} threads");
    assert_eq!(a.wire_length(), b.wire_length(), "{threads} threads");
    assert_eq!(a.stats(), b.stats(), "{threads} threads");
    assert_eq!(a.failures.len(), b.failures.len(), "{threads} threads");
    for ((ida, ea), (idb, eb)) in a.failures.iter().zip(&b.failures) {
        assert_eq!(ida, idb, "{threads} threads");
        assert_eq!(ea, eb, "{threads} threads");
    }
    for (ra, rb) in a.routes.iter().zip(&b.routes) {
        assert_eq!(ra.net, rb.net, "{threads} threads");
        assert_eq!(ra.id, rb.id, "{threads} threads");
        assert_eq!(ra.stats, rb.stats, "{threads} threads");
        assert_eq!(
            ra.connections.len(),
            rb.connections.len(),
            "{threads} threads"
        );
        for (ca, cb) in ra.connections.iter().zip(&rb.connections) {
            assert_eq!(ca.polyline, cb.polyline, "{threads} threads");
            assert_eq!(ca.cost, cb.cost, "{threads} threads");
            assert_eq!(ca.stats, cb.stats, "{threads} threads");
        }
    }
}

/// Arena-poisoning differential: routing interleaved, differently-shaped
/// nets through ONE reused [`SearchScratch`] must be byte-identical to
/// fresh-scratch runs — for all three engines, over both plane indexes.
/// This is the contract that lets the batch pipeline keep one arena per
/// worker: reuse amortizes allocations and must never leak state.
#[test]
fn reused_scratch_is_byte_identical_to_fresh_for_all_engines_and_indexes() {
    let layout = build();
    let ids = layout.net_ids();
    let engines: Vec<(&str, Box<dyn RoutingEngine>)> = vec![
        ("gridless", Box::new(GridlessEngine)),
        ("grid-astar", Box::new(GridEngine::default())),
        ("lee-moore", Box::new(GridEngine::lee_moore())),
        ("hightower", Box::new(HightowerEngine::default())),
    ];
    for (name, engine) in &engines {
        for index in [PlaneIndexKind::Flat, PlaneIndexKind::Sharded] {
            let router = BatchRouter::new(&layout, RouterConfig::default(), engine)
                .with_batch(BatchConfig::serial().with_index(index));
            // One scratch across every net, visited in reverse id order
            // (multi-terminal nets first, then the two-pin ones), so
            // each search inherits a dirty arena shaped by a
            // differently-sized predecessor.
            let mut scratch = SearchScratch::new();
            let mut order: Vec<_> = ids.clone();
            order.reverse();
            for &id in &order {
                let reused = router.route_net_in(id, None, &mut scratch);
                let fresh = router.route_net(id);
                match (reused, fresh) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.stats, b.stats, "{name}/{index:?}: net {}", a.net);
                        assert_eq!(a.tree.points(), b.tree.points(), "{name}/{index:?}");
                        assert_eq!(a.tree.segments(), b.tree.segments(), "{name}/{index:?}");
                        for (ca, cb) in a.connections.iter().zip(&b.connections) {
                            assert_eq!(ca.polyline, cb.polyline, "{name}/{index:?}");
                            assert_eq!(ca.cost, cb.cost, "{name}/{index:?}");
                            assert_eq!(ca.stats, cb.stats, "{name}/{index:?}");
                        }
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "{name}/{index:?}: failure for {id}");
                    }
                    (a, b) => panic!("{name}/{index:?}: outcomes diverge for {id}: {a:?} vs {b:?}"),
                }
            }
        }
    }
}

/// The reused-scratch seam must also leave the batch entry points
/// unchanged: `route_all` (per-worker scratch) against per-net
/// fresh-scratch routing.
#[test]
fn batch_route_all_matches_per_net_fresh_scratch_routing() {
    let layout = build();
    let router =
        BatchRouter::gridless(&layout, RouterConfig::default()).with_batch(BatchConfig::serial());
    let batch = router.route_all();
    let mut routes = 0;
    for r in &batch.routes {
        let fresh = router.route_net(r.id).expect("batch routed it");
        assert_eq!(r.stats, fresh.stats, "net {}", r.net);
        assert_eq!(r.tree.segments(), fresh.tree.segments(), "net {}", r.net);
        for (ca, cb) in r.connections.iter().zip(&fresh.connections) {
            assert_eq!(ca.polyline, cb.polyline, "net {}", r.net);
            assert_eq!(ca.cost, cb.cost, "net {}", r.net);
        }
        routes += 1;
    }
    assert_eq!(routes, batch.routed_count());
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
    let ra = GlobalRouter::new(&a, RouterConfig::default()).route_all();
    let rb = GlobalRouter::new(&reparsed, RouterConfig::default()).route_all();
    assert_eq!(ra.routed_count(), rb.routed_count());
    assert_eq!(ra.wire_length(), rb.wire_length());
    assert_eq!(ra.stats().expanded, rb.stats().expanded);
}

/// The search-work pin: a serial default-config route of the seeded
/// 120-net die must do exactly this much A\* work and emit exactly this
/// `DUMP`, on both plane indexes. Pruning that leaves out successors A\*
/// would throw away shrinks the successor set, so it moves `generated`
/// and `touched` only; a change to the successors' order or cost, or
/// to the A\* tie-breaks, moves `expanded` or the digest too.
#[test]
fn search_work_and_route_digest_are_pinned() {
    use gcr::search::FnvHasher;
    use gcr::service::dump_routing;
    use std::hash::Hasher;

    let layout = generate(&GeneratorParams::with_nets(120, 4));
    for index in [PlaneIndexKind::Flat, PlaneIndexKind::Sharded] {
        let routing = BatchRouter::gridless(&layout, RouterConfig::default())
            .with_batch(BatchConfig::serial().with_index(index))
            .route_all();
        let stats = routing.stats();
        assert_eq!(
            (stats.expanded, stats.generated, stats.touched),
            (8054, 111_606, 101_319),
            "{index:?}: {stats:?}"
        );
        let mut fnv = FnvHasher::default();
        fnv.write(dump_routing(&routing).as_bytes());
        assert_eq!(
            format!("{:016x}", fnv.finish()),
            "6a6f9d3a0b6ea838",
            "{index:?}"
        );
    }
}

#[test]
fn format_roundtrip_preserves_routing_results() {
    let layout = build();
    let reparsed = format::parse(&format::write(&layout)).expect("own output parses");
    let a = GlobalRouter::new(&layout, RouterConfig::default()).route_all();
    let b = GlobalRouter::new(&reparsed, RouterConfig::default()).route_all();
    assert_eq!(a.wire_length(), b.wire_length());
    assert_eq!(a.stats().expanded, b.stats().expanded);
}
