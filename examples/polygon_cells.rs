//! The paper's extension: orthogonal-polygon cell boundaries. An L-shaped
//! and a U-shaped cell are routed around — including into the U's cavity
//! — with no special casing in the router.
//!
//! ```text
//! cargo run --example polygon_cells
//! ```

use gcr::geom::RectilinearPolygon;
use gcr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut layout = Layout::new(Rect::new(0, 0, 200, 120)?);
    let ell = RectilinearPolygon::new(vec![
        Point::new(20, 16),
        Point::new(80, 16),
        Point::new(80, 52),
        Point::new(50, 52),
        Point::new(50, 100),
        Point::new(20, 100),
    ])?;
    let u = RectilinearPolygon::new(vec![
        Point::new(100, 16),
        Point::new(180, 16),
        Point::new(180, 100),
        Point::new(156, 100),
        Point::new(156, 44),
        Point::new(124, 44),
        Point::new(124, 100),
        Point::new(100, 100),
    ])?;
    let ell_id = layout.add_polygon_cell("ell", ell)?;
    let u_id = layout.add_polygon_cell("u", u)?;

    // A net from the L's notch edge into the U's cavity.
    let net = layout.add_net("deep");
    let t0 = layout.add_terminal(net, "ell_pin");
    layout.add_pin(t0, Pin::on_cell(ell_id, Point::new(65, 52)))?;
    let t1 = layout.add_terminal(net, "u_pin");
    layout.add_pin(t1, Pin::on_cell(u_id, Point::new(140, 44)))?;
    layout.validate()?;

    let mut session = RoutingSession::gridless(layout.clone(), RouterConfig::default());
    let route = session.route_net(net)?;
    println!("routed {}:", route.net);
    for c in &route.connections {
        println!("  path  : {}", c.polyline);
        println!("  length: {} with {} bend(s)", c.length(), c.bends());
        println!("  search: {}", c.stats);
    }

    let art = gcr::layout::render::render(
        &layout,
        &route
            .connections
            .iter()
            .map(|c| ('*', &c.polyline))
            .collect::<Vec<_>>(),
        2,
    );
    println!("\n{art}");
    println!("the route climbs over the U's arm and descends into the cavity —");
    println!("the ray tracer handles the polygon's rectangles like any other cells.");
    Ok(())
}
