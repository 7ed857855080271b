//! End-to-end chip assembly: placement → netlist → validation → two-pass
//! global routing → detailed routing, with legality checked at each stage.

use gcr::detail::route_details;
use gcr::prelude::*;
use gcr::workload::{netlists, placements, rng_for};

fn assembled_layout() -> Layout {
    let core = placements::MacroGridParams {
        rows: 3,
        cols: 3,
        ..Default::default()
    };
    let mut rng = rng_for("full-flow", 7);
    let mut layout = placements::pad_ring(&core, 4, &mut rng);
    netlists::add_two_pin_nets(&mut layout, 20, &mut rng);
    netlists::add_multi_terminal_nets(&mut layout, 5, 4, &mut rng);
    netlists::add_multi_pin_nets(&mut layout, 3, 2, &mut rng);
    layout
}

#[test]
fn generated_chip_validates() {
    let layout = assembled_layout();
    layout
        .validate()
        .expect("generated layouts obey the placement rules");
    assert_eq!(layout.cells().len(), 9 + 16);
    assert_eq!(layout.nets().len(), 28);
}

#[test]
fn all_nets_route_and_wires_are_legal() {
    let layout = assembled_layout();
    let mut session = RoutingSession::gridless(layout.clone(), RouterConfig::default());
    let routing = session.route_all();
    assert!(
        routing.failures.is_empty(),
        "all nets must route: {:?}",
        routing.failures
    );
    let plane = layout.to_plane();
    for route in &routing.routes {
        for c in &route.connections {
            assert!(
                plane.polyline_free(&c.polyline),
                "net {} has illegal wire {}",
                route.net,
                c.polyline
            );
        }
    }
    assert!(routing.wire_length() > 0);
}

#[test]
fn every_terminal_is_connected_to_its_tree() {
    let layout = assembled_layout();
    let mut session = RoutingSession::gridless(layout.clone(), RouterConfig::default());
    for (idx, net) in layout.nets().iter().enumerate() {
        let id = layout.net_by_name(net.name()).expect("enumerated net");
        let route = session
            .route_net(id)
            .unwrap_or_else(|e| panic!("net {idx}: {e}"));
        // Each terminal must have at least one pin on the routed tree
        // (or be the seed terminal whose pins are tree points).
        for terminal in net.terminals() {
            let touched = terminal
                .pins()
                .iter()
                .any(|p| route.tree.contains(p.position));
            assert!(
                touched,
                "net {} terminal {} has no pin on the tree",
                net.name(),
                terminal.name()
            );
        }
    }
}

#[test]
fn two_pass_keeps_everything_routed_and_legal() {
    let layout = assembled_layout();
    let mut config = RouterConfig::default();
    config.wire_pitch(2).congestion_weight(4);
    let mut session = RoutingSession::gridless(layout.clone(), config);
    let report = session.route_two_pass();
    assert!(report.routing.failures.is_empty());
    assert_eq!(report.routing.routed_count(), layout.nets().len());
    assert!(
        report.after.total_overflow() <= report.before.total_overflow(),
        "pass 2 must not worsen congestion: {} -> {}",
        report.before.total_overflow(),
        report.after.total_overflow()
    );
    let plane = layout.to_plane();
    for route in &report.routing.routes {
        for c in &route.connections {
            assert!(plane.polyline_free(&c.polyline));
        }
    }
}

#[test]
fn detailed_routing_covers_used_passages() {
    let layout = assembled_layout();
    let mut session = RoutingSession::gridless(layout.clone(), RouterConfig::default());
    let routing = session.route_all();
    let plane = layout.to_plane();
    let report = route_details(&plane, &routing);
    assert!(report.channel_count() > 0, "a routed chip uses passages");
    // Track assignments are internally consistent.
    for (channel, assignment) in report.channels.iter().zip(&report.assignments) {
        assert!(assignment.track_count() >= channel.density().min(1));
        for (i, &t) in assignment.track_of.iter().enumerate() {
            assert!(assignment.tracks[t].contains(&i));
        }
    }
}
