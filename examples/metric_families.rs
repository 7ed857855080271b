//! Prints every metric family the workspace registers, one name per
//! line — the canonical list CI's metrics-completeness check compares
//! against a live daemon's `METRICS` scrape.
//!
//! Families register lazily (each layer's handle struct initializes on
//! first use), so this drives the smallest traffic that touches every
//! instrumented layer: an in-process daemon (service families), one
//! sharded routed session (search families) and a
//! rip-up + reroute ECO (the session-layer families).
//!
//! ```text
//! cargo run --example metric_families
//! ```

use gcr::prelude::*;
use gcr::service::{Client, EngineKind, Server, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gcl = std::fs::read_to_string("fixtures/demo.gcl")?;
    let server = Server::bind(&ServerConfig {
        capacity: 2,
        workers: 1,
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr()?;
    let daemon = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr)?;
    let (sid, _) = client.open(EngineKind::Gridless, PlaneIndexKind::Sharded, &gcl)?;
    client.route(sid, false)?;
    client.eco(sid, "ripup clk\nreroute\n")?;
    client.close_session(sid)?;
    client.shutdown()?;
    daemon.join().expect("daemon thread")?;

    for name in gcr::telemetry::global().family_names() {
        println!("{name}");
    }
    Ok(())
}
