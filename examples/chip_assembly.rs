//! The full chip-assembly flow from the paper's introduction: macros from
//! a "cell library" plus pads, global routing of a mixed netlist
//! (including multi-terminal and multi-pin nets), a congestion-aware
//! second pass, and the detailed-routing substrate (dynamic channels +
//! track assignment).
//!
//! ```text
//! cargo run --example chip_assembly
//! ```

use gcr::detail::route_details;
use gcr::prelude::*;
use gcr::workload::{netlists, placements, rng_for};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Placement: a 3×3 macro core with a ring of pads.
    let core = placements::MacroGridParams {
        rows: 3,
        cols: 3,
        ..Default::default()
    };
    let mut rng = rng_for("chip_assembly", 1);
    let mut layout = placements::pad_ring(&core, 4, &mut rng);

    // Netlist: signal nets, a couple of 4-terminal buses, and multi-pin
    // power-style terminals.
    netlists::add_two_pin_nets(&mut layout, 24, &mut rng);
    netlists::add_multi_terminal_nets(&mut layout, 6, 4, &mut rng);
    netlists::add_multi_pin_nets(&mut layout, 4, 2, &mut rng);
    layout.validate()?;
    println!("{layout}");

    // Global routing, two-pass (congestion-aware).
    let mut config = RouterConfig::default();
    config.wire_pitch(2).congestion_weight(4);
    let mut session = RoutingSession::gridless(layout.clone(), config);
    let report = session.route_two_pass();
    println!("\nglobal routing: {}", report.routing);
    println!("  search effort over all nets: {}", report.routing.stats());
    println!(
        "  passage overflow: {} before, {} after ({} nets rerouted)",
        report.before.total_overflow(),
        report.after.total_overflow(),
        report.rerouted
    );
    for (id, err) in &report.routing.failures {
        println!("  FAILED {id}: {err}");
    }

    // Detailed routing substrate: dynamic channels + left-edge tracks,
    // over the plane the session routed on.
    let detail = route_details(session.plane(), &report.routing);
    println!(
        "\ndetailed routing: {} channels, {} total tracks (widest {}), {:?}",
        detail.channel_count(),
        detail.total_tracks(),
        detail.max_tracks(),
        detail.elapsed
    );

    // Show the three longest nets.
    let mut routes: Vec<&NetRoute> = report.routing.routes.iter().collect();
    routes.sort_by_key(|r| std::cmp::Reverse(r.wire_length()));
    println!("\nlongest nets:");
    for r in routes.iter().take(3) {
        println!("  {r}");
    }
    Ok(())
}
