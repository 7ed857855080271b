//! ECO flow: keep one warm [`RoutingSession`] alive while the design
//! churns — cells move, blockages appear, nets come and go — and let the
//! session re-route only what each change invalidated.
//!
//! ```text
//! cargo run --example eco_flow
//! ```

use gcr::layout::render;
use gcr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 140×100 die with three macros and four nets.
    let mut layout = Layout::new(Rect::new(0, 0, 140, 100)?);
    layout.add_cell("alu", Rect::new(10, 30, 45, 70)?)?;
    layout.add_cell("rom", Rect::new(55, 30, 85, 70)?)?;
    layout.add_cell("ram", Rect::new(95, 30, 130, 70)?)?;
    layout.add_two_pin_net("north", Point::new(5, 90), Point::new(135, 90));
    layout.add_two_pin_net("south", Point::new(5, 10), Point::new(135, 10));
    layout.add_two_pin_net("mid", Point::new(5, 50), Point::new(135, 50));
    layout.add_two_pin_net("drop", Point::new(50, 5), Point::new(90, 95));
    layout.validate()?;

    // The session owns the layout, the sharded plane index, the
    // scratch-arena pool and the committed routes.
    let mut session = RoutingSession::builder(layout)
        .config(RouterConfig::default())
        .index(PlaneIndexKind::Sharded)
        .build();

    let baseline = session.route_all();
    println!("baseline      : {baseline}");

    // ECO 1: the ram macro shifts east. Only nets with a pin on it or a
    // route whose bounding box it touches become dirty; the rest stay
    // committed.
    session.move_cell(session.layout().cell_by_name("ram").unwrap(), 5, 0)?;
    report(&mut session, "move ram +5x");

    // ECO 2: a late blockage lands right on the mid net's corridor.
    session.add_obstacle("blk", Rect::new(46, 40, 54, 60)?)?;
    report(&mut session, "add blockage");

    // ECO 3: a new net appears; it starts dirty and routes on the next
    // flush on the already-warm plane and arenas.
    session.add_two_pin_net("eco0", Point::new(5, 75), Point::new(135, 75));
    report(&mut session, "add net eco0");

    // ECO 4: congestion-style rip-up-and-reroute of a single victim.
    let drop = session.layout().net_by_name("drop").unwrap();
    session.rip_up(drop);
    report(&mut session, "rip up drop");

    let final_routing = session.routing();
    println!("after ECOs    : {final_routing}");
    session.layout().validate()?;

    let glyphs = ['n', 's', 'm', 'd', 'e'];
    let pairs: Vec<(char, &Polyline)> = final_routing
        .routes
        .iter()
        .enumerate()
        .flat_map(|(i, r)| {
            let g = glyphs[i % glyphs.len()];
            r.connections.iter().map(move |c| (g, &c.polyline))
        })
        .collect();
    println!("\n{}", render::render(session.layout(), &pairs, 2));
    Ok(())
}

/// Flushes the dirty set and prints what the change actually cost.
fn report(session: &mut RoutingSession, what: &str) {
    let dirty = session.dirty_nets().len();
    let outcome = session.reroute_dirty();
    println!(
        "{what:<14}: {dirty} net(s) dirty -> {} rerouted, {} failed",
        outcome.rerouted, outcome.failed
    );
}
