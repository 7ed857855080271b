//! The shipped `.gcl` fixture files must stay parseable, valid and
//! routable — they are the CLI's demo inputs.

use gcr::layout::format;
use gcr::prelude::*;

#[test]
fn demo_gcl_parses_validates_and_routes() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/demo.gcl"))
        .expect("fixture present");
    let layout = format::parse(&text).expect("fixture parses");
    layout.validate().expect("fixture is a valid layout");
    assert_eq!(layout.cells().len(), 4);
    assert_eq!(layout.nets().len(), 3);

    let mut session = RoutingSession::gridless(layout.clone(), RouterConfig::default());
    let routing = session.route_all();
    assert!(routing.failures.is_empty(), "{:?}", routing.failures);
    assert_eq!(routing.routed_count(), 3);

    // The multi-pin power net connects through its ring terminal.
    let power = layout.net_by_name("power").unwrap();
    let route = routing.route_for(power).expect("power routed");
    let net = layout.net(power).unwrap();
    for terminal in net.terminals() {
        assert!(terminal
            .pins()
            .iter()
            .any(|p| route.tree.contains(p.position)));
    }
}

#[test]
fn dense_gcl_parses_validates_and_routes() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/dense.gcl"))
        .expect("fixture present");
    let layout = format::parse(&text).expect("fixture parses");
    layout.validate().expect("fixture is a valid layout");
    assert_eq!(layout.cells().len(), 9);
    assert_eq!(layout.nets().len(), 5);

    let mut session = RoutingSession::gridless(layout.clone(), RouterConfig::default());
    let routing = session.route_all();
    assert!(routing.failures.is_empty(), "{:?}", routing.failures);
    assert_eq!(routing.routed_count(), 5);

    // Every terminal of every net is connected by its tree.
    for net in layout.nets() {
        let id = layout.net_by_name(net.name()).unwrap();
        let route = routing.route_for(id).expect("net routed");
        for terminal in net.terminals() {
            assert!(
                terminal
                    .pins()
                    .iter()
                    .any(|p| route.tree.contains(p.position)),
                "net {} terminal unconnected",
                net.name()
            );
        }
    }
}

#[test]
fn dense_gcl_routes_identically_over_flat_and_sharded_planes() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/dense.gcl"))
        .expect("fixture present");
    let layout = format::parse(&text).expect("fixture parses");
    let route = |batch| {
        RoutingSession::builder(layout.clone())
            .batch(batch)
            .build()
            .route_all()
    };
    let flat = route(BatchConfig::serial().with_index(PlaneIndexKind::Flat));
    let sharded = route(BatchConfig::default().with_index(PlaneIndexKind::Sharded));
    assert_eq!(flat.wire_length(), sharded.wire_length());
    assert_eq!(flat.stats(), sharded.stats());
    for (a, b) in flat.routes.iter().zip(&sharded.routes) {
        assert_eq!(a.net, b.net);
        for (ca, cb) in a.connections.iter().zip(&b.connections) {
            assert_eq!(ca.polyline, cb.polyline);
        }
    }
}

#[test]
fn shipped_fixtures_roundtrip() {
    for fixture in ["demo.gcl", "dense.gcl"] {
        let path = format!(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/{}"), fixture);
        let text = std::fs::read_to_string(&path).expect("fixture present");
        let layout = format::parse(&text).unwrap_or_else(|e| panic!("{fixture}: {e}"));
        let rewritten = format::write(&layout);
        let reparsed = format::parse(&rewritten).expect("own output parses");
        assert_eq!(format::write(&reparsed), rewritten, "{fixture}");
    }
}

#[test]
fn random_layouts_roundtrip_through_the_format() {
    use gcr::workload::{netlists, placements, rng_for};
    for case in 0..8u64 {
        let params = placements::MacroGridParams {
            rows: 1 + (case as usize % 3),
            cols: 2 + (case as usize % 2),
            ..Default::default()
        };
        let mut layout = placements::macro_grid(&params, &mut rng_for("fmt", case));
        let mut rng = rng_for("fmt-nets", case);
        netlists::add_two_pin_nets(&mut layout, 6, &mut rng);
        netlists::add_multi_terminal_nets(&mut layout, 2, 3, &mut rng);
        netlists::add_multi_pin_nets(&mut layout, 2, 2, &mut rng);
        let text = format::write(&layout);
        let reparsed = format::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(format::write(&reparsed), text, "case {case}");
        assert_eq!(reparsed.pin_count(), layout.pin_count());
        assert_eq!(reparsed.total_hpwl(), layout.total_hpwl());
    }
}
