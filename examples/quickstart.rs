//! Quickstart: build a tiny general-cell layout, route one net, and print
//! the result as ASCII art.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use gcr::layout::render;
use gcr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 100×60 die with two macro cells placed a non-zero distance apart
    // (the paper's placement restrictions).
    let mut layout = Layout::new(Rect::new(0, 0, 100, 60)?);
    let alu = layout.add_cell("alu", Rect::new(10, 12, 40, 48)?)?;
    let rom = layout.add_cell("rom", Rect::new(55, 12, 90, 48)?)?;

    // One two-terminal net between pins on facing cell edges.
    let net = layout.add_net("bus0");
    let a = layout.add_terminal(net, "alu_out");
    layout.add_pin(a, Pin::on_cell(alu, Point::new(40, 20)))?;
    let b = layout.add_terminal(net, "rom_in");
    layout.add_pin(b, Pin::on_cell(rom, Point::new(55, 40)))?;
    layout.validate()?;

    // Route it with the gridless A* router.
    let mut session = RoutingSession::gridless(layout.clone(), RouterConfig::default());
    let route = session.route_net(net)?;

    println!("routed net {}:", route.net);
    for connection in &route.connections {
        println!("  path  : {}", connection.polyline);
        println!("  length: {}", connection.length());
        println!("  bends : {}", connection.bends());
        println!("  search: {}", connection.stats);
    }

    let art = render::render(
        &layout,
        &route
            .connections
            .iter()
            .map(|c| ('*', &c.polyline))
            .collect::<Vec<_>>(),
        1,
    );
    println!("\n{art}");
    Ok(())
}
