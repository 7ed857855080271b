//! Three generations of maze routing behind **one** `RoutingEngine`
//! trait, each driven by a `RoutingSession` on the same instances:
//! Hightower line probes (1969, fast but incomplete), Lee-Moore / grid
//! A* (1961, complete but grid-bound), and the paper's gridless A*
//! (1984, both). The session also demonstrates the paper's order-free
//! parallelism: serial and parallel runs produce byte-identical routing.
//!
//! ```text
//! cargo run --release --example router_shootout
//! ```

use std::time::Instant;

use gcr::hightower::{hightower, HightowerConfig};
use gcr::prelude::*;
use gcr::workload::{fixtures, scaling_instance};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let layout = scaling_instance(4, 4, 24, 6, 0);
    let nets = layout.nets().len();
    println!(
        "routing {nets} nets over a {}-cell layout, one session per engine, four engines\n",
        layout.cells().len()
    );
    println!(
        "{:<16} {:>10} {:>8} {:>12} {:>14} {:>10}",
        "engine", "caps", "routed", "wire total", "effort (exp)", "time (ms)"
    );

    let engines: Vec<Box<dyn RoutingEngine>> = vec![
        Box::new(GridlessEngine),
        Box::new(GridEngine::default()),
        Box::new(GridEngine::lee_moore()),
        Box::new(HightowerEngine::default()),
    ];
    let config = RouterConfig::default();
    for engine in engines {
        let caps = engine.capabilities();
        let mut session = RoutingSession::builder(layout.clone())
            .config(config.clone())
            .engine(engine)
            .build();
        let t0 = Instant::now();
        let routing = session.route_all();
        let elapsed = t0.elapsed().as_secs_f64() * 1e3;
        let capstr = format!(
            "{}{}{}",
            if caps.complete { "C" } else { "-" },
            if caps.optimal { "O" } else { "-" },
            if caps.supports_congestion { "G" } else { "-" },
        );
        println!(
            "{:<16} {:>10} {:>8} {:>12} {:>14} {:>10.2}",
            caps.name,
            capstr,
            format!("{}/{nets}", routing.routed_count()),
            routing.wire_length(),
            routing.stats().expanded,
            elapsed
        );
    }
    println!("\ncaps: C complete, O optimal, G congestion-aware");

    // The order-free parallel schedule: identical output, less wall time.
    let mut serial_session = RoutingSession::builder(layout.clone())
        .config(config.clone())
        .serial()
        .build();
    let mut parallel_session = RoutingSession::gridless(layout, config.clone());
    let t0 = Instant::now();
    let serial = serial_session.route_all();
    let t_serial = t0.elapsed();
    let t0 = Instant::now();
    let parallel = parallel_session.route_all();
    let t_parallel = t0.elapsed();
    assert_eq!(serial.wire_length(), parallel.wire_length());
    assert_eq!(serial.stats(), parallel.stats());
    println!(
        "\nschedule determinism: serial {:.2} ms == parallel {:.2} ms (same wire {}, same stats)",
        t_serial.as_secs_f64() * 1e3,
        t_parallel.as_secs_f64() * 1e3,
        serial.wire_length(),
    );

    // The spiral: where line probing famously gives up.
    let (spiral, s, t) = fixtures::spiral();
    println!("\nthe spiral (paper's motivation for combining both worlds):");
    let tight = HightowerConfig {
        max_level: 3,
        max_lines: 400,
    };
    match hightower(&spiral, s, t, &tight) {
        Ok(_) => println!("  hightower: solved (unexpected)"),
        Err(e) => println!("  hightower: gives up ({e})"),
    }
    let g = route_two_points(&spiral, s, t, &config)?;
    println!(
        "  gridless A*: length {} after {} expansions",
        g.cost.primary, g.stats.expanded
    );
    Ok(())
}
