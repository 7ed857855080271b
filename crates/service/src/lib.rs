//! `gcr-service` — the long-running routing daemon.
//!
//! A warm single-net reroute costs a small fraction of a cold full
//! route (`tests/session.rs` holds that as a bar). A one-shot CLI
//! throws that warmth away after every invocation; this crate keeps it: a daemon that holds
//! [`RoutingSession`](gcr_core::RoutingSession)s alive behind a TCP
//! surface, so an iterative floorplan/ECO loop pays the warm price per
//! request instead of the cold one.
//!
//! Three layers, one per module:
//!
//! * [`proto`] — the line-oriented **text wire protocol** (`OPEN`,
//!   `ECO`, `ROUTE`, `RIPUP`, `STATS`, `DUMP`, `CLOSE`, `PING`,
//!   `SHUTDOWN` + typed `ERR` replies). Bodies reuse the repo's existing
//!   `.gcl` / `.eco` grammars behind SMTP-style dot framing — no new
//!   serialization format, std-only.
//! * [`registry`] — the **[`SessionRegistry`]**: sharded-lock concurrent
//!   map of `sid -> RoutingSession`, per-session serialized mutation,
//!   LRU-capped capacity with eviction, per-session request/wall-time
//!   accounting.
//! * [`server`] / [`client`] — a std-`TcpListener` **[`Server`]** with a
//!   bounded worker pool and signal-free graceful drain, and the
//!   blocking **[`Client`]** that `gcrt client`, the tests and the bench
//!   all share.
//!
//! Two hardening modules ride alongside: [`retry`] (exponential backoff
//! with decorrelated jitter, gated by per-verb idempotency) and
//! [`chaos`] (a seeded fault-injecting TCP relay the chaos suite drives
//! scenarios through). The server itself reads requests under
//! [`WireLimits`], times out silent connections, sheds load with
//! `ERR BUSY`, honours per-request `DEADLINE` budgets with rollback,
//! and quarantines a session whose request panicked.
//!
//! Observability rides on `gcr-telemetry`: [`metrics`] registers the
//! daemon's per-verb counters/latency histograms, error-code counters,
//! queue-depth gauge and byte counters; the `METRICS` verb exposes the
//! whole process registry in Prometheus-style text; and [`loadgen`] is
//! the closed-loop multi-client load generator behind `gcrt loadgen`
//! that measures the daemon's real req/s ceiling.
//!
//! The correctness bar is the same one every layer of this repo holds:
//! routes fetched through the daemon are **byte-identical** to an
//! in-process [`RoutingSession`](gcr_core::RoutingSession) over the same
//! layout and ECO sequence (`tests/service.rs` asserts it across
//! engines × plane indexes).
//!
//! ```no_run
//! use gcr_core::PlaneIndexKind;
//! use gcr_service::{Client, EngineKind, Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::bind(&ServerConfig::default())?;
//! let addr = server.local_addr()?;
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! let gcl = std::fs::read_to_string("fixtures/demo.gcl")?;
//! let (sid, _) = client.open(EngineKind::Gridless, PlaneIndexKind::Sharded, &gcl)?;
//! client.route(sid, false)?; // cold: routes everything
//! client.eco(sid, "move io 4 0\nreroute\n")?; // warm: only the dirty set
//! println!("{}", client.dump(sid)?.body);
//! client.shutdown()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod loadgen;
pub mod metrics;
pub mod proto;
pub mod registry;
pub mod retry;
pub mod server;

pub use chaos::{ChaosProxy, Fault};
pub use client::{Client, ClientError, Reply};
pub use loadgen::{LoadGenConfig, LoadGenReport, LoadKind};
pub use metrics::ServiceMetrics;
pub use proto::{
    dump_routing, format_stats, index_name, parse_index, read_request_limited, BoxedEngine,
    EngineKind, ErrCode, Request, Response, WireError, WireLimits, VERBS,
};
pub use registry::{Quarantined, ServiceSession, SessionEntry, SessionRegistry};
pub use retry::{is_idempotent, is_retryable_error, RetryPolicy, RetryingClient};
pub use server::{Server, ServerConfig, ServerReport};

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_core::PlaneIndexKind;

    /// End-to-end smoke inside the crate: everything else lives in the
    /// workspace-level `tests/service.rs` differential.
    #[test]
    fn loopback_smoke() {
        let server = Server::bind(&ServerConfig {
            capacity: 2,
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let gcl = "gcl 1\nbounds 0 0 60 40\nnet w\nterminal a\npin - 5 20\n\
                   terminal b\npin - 55 20\n";
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        let (sid, open) = client
            .open(EngineKind::Gridless, PlaneIndexKind::Flat, gcl)
            .unwrap();
        assert_eq!(open.int_field("nets"), Some(1));
        let route = client.route(sid, false).unwrap();
        assert_eq!(route.field("mode"), Some("full"));
        assert_eq!(route.int_field("routed"), Some(1));
        assert_eq!(route.int_field("wire-length"), Some(50));
        let stats = client.stats(Some(sid)).unwrap();
        assert_eq!(stats.int_field("routed"), Some(1));
        assert_eq!(stats.field("engine"), Some("gridless"));
        let dump = client.dump(sid).unwrap();
        assert!(dump.body.starts_with("net w 0 length 50"), "{}", dump.body);
        // Unknown session and unknown net come back as typed errors.
        match client.stats(Some(sid + 100)) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::UnknownSession),
            other => panic!("expected UNKNOWN-SESSION, got {other:?}"),
        }
        match client.rip_up(sid, "nope") {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::UnknownName),
            other => panic!("expected UNKNOWN-NAME, got {other:?}"),
        }
        client.close_session(sid).unwrap();
        client.shutdown().unwrap();
        let report = handle.join().unwrap();
        assert!(report.requests >= 8);
        assert_eq!(report.sessions_open, 0);
    }
}
