//! The seeded chaos suite: the daemon under transport and application
//! faults. Every scenario drives real traffic through a
//! [`ChaosProxy`] (or injects the fault directly on a raw socket) and
//! then holds the same three post-conditions:
//!
//! 1. **No hang** — every client call is under a timeout, every server
//!    wait is under `read_timeout_ms`, and the server joins cleanly, so
//!    a wedged scenario fails on the clock instead of deadlocking.
//! 2. **No wedged session** — the registry ends each scenario with
//!    exactly the sessions the scenario legitimately created.
//! 3. **Byte-identical recovery** — after the fault, a direct (fault-
//!    free) connection routes and `DUMP`s state identical to an
//!    in-process [`RoutingSession`] over the same layout.
//!
//! Everything is seeded: a failure reproduces from its scenario alone.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use gcr::prelude::*;
use gcr::service::{
    dump_routing, proto, ChaosProxy, Client, ClientError, EngineKind, ErrCode, Fault, Request,
    Response, Server, ServerConfig, ServerReport, WireLimits,
};

/// Client-side I/O timeout: generous enough for a loaded CI box, tight
/// enough that a hang fails fast.
const CLIENT_IO: Duration = Duration::from_secs(10);

fn demo_gcl() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/demo.gcl")).unwrap()
}

/// The in-process reference: what a fault-free `ROUTE FULL` + `DUMP`
/// of the demo layout must produce, byte for byte.
fn reference_dump() -> String {
    let layout = gcr::layout::format::parse(&demo_gcl()).unwrap();
    let mut session = RoutingSession::builder(layout)
        .config(RouterConfig::default())
        .index(PlaneIndexKind::Sharded)
        .build();
    session.route_all();
    dump_routing(&session.routing())
}

fn spawn_server(config: ServerConfig) -> (std::net::SocketAddr, thread::JoinHandle<ServerReport>) {
    let server = Server::bind(&config).expect("bind ephemeral loopback port");
    let addr = server.local_addr().unwrap();
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// The chaos server profile: a short read timeout so stalled frames
/// escape quickly, everything else at the defaults.
fn chaos_config() -> ServerConfig {
    ServerConfig {
        capacity: 4,
        workers: 2,
        read_timeout_ms: 500,
        ..ServerConfig::default()
    }
}

fn direct_client(addr: std::net::SocketAddr) -> Client {
    Client::connect_timeout(addr, CLIENT_IO, Some(CLIENT_IO)).expect("direct connection")
}

/// The generic transport-fault scenario: open a session directly,
/// attempt a `ROUTE` through the faulty proxy (any outcome is legal
/// except a hang), then verify recovery over a direct connection.
fn route_through_fault(fault: Fault, seed: u64) {
    let (addr, handle) = spawn_server(chaos_config());
    let expected = reference_dump();
    let sid = {
        let mut setup = direct_client(addr);
        let (sid, _) = setup
            .open(EngineKind::Gridless, PlaneIndexKind::Sharded, &demo_gcl())
            .unwrap();
        sid
        // The setup connection drops here; a fault scenario may hold
        // the server past its idle timeout, which would (correctly)
        // close any idle keep-alive connection we kept around.
    };

    {
        let proxy = ChaosProxy::start(addr, fault, seed).unwrap();
        // The scenario exchange: Ok or Err are both acceptable — the
        // contract is that it RETURNS (client timeout bounds it) and
        // that the daemon afterwards behaves as if the fault never
        // happened.
        if let Ok(mut through) = Client::connect_timeout(proxy.addr(), CLIENT_IO, Some(CLIENT_IO)) {
            let _ = through.route(sid, true);
            let _ = through.ping();
        }
        // Dropping the proxy joins its relay threads: no leaks.
    }

    // Recovery on a fresh, fault-free connection: the daemon still
    // answers, the session is not wedged, and a full reroute
    // reproduces the in-process reference byte for byte.
    let mut direct = direct_client(addr);
    direct.ping().unwrap();
    direct.route_deadline(sid, true, Some(60_000)).unwrap();
    assert_eq!(direct.dump(sid).unwrap().body, expected, "{fault:?}");
    let stats = direct.stats(None).unwrap();
    assert_eq!(stats.int_field("sessions"), Some(1), "{fault:?}");

    direct.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn chaos_pass_through_control() {
    route_through_fault(Fault::None, 0x01);
}

#[test]
fn chaos_delayed_chunks() {
    route_through_fault(Fault::Delay { max_ms: 30 }, 0x02);
}

#[test]
fn chaos_split_frames() {
    route_through_fault(Fault::Split, 0x03);
}

#[test]
fn chaos_killed_mid_request_line() {
    route_through_fault(Fault::KillAfter { bytes: 5 }, 0x04);
}

#[test]
fn chaos_truncated_reply() {
    route_through_fault(Fault::TruncateReply { bytes: 3 }, 0x05);
}

#[test]
fn chaos_stalled_mid_request() {
    route_through_fault(Fault::StallAfter { bytes: 4 }, 0x06);
}

/// `OPEN` killed mid-body: the daemon sees a dot-framed body die before
/// its terminator. No session may leak from the dead request.
#[test]
fn chaos_killed_mid_body_leaks_no_session() {
    let (addr, handle) = spawn_server(chaos_config());
    let expected = reference_dump();
    {
        let proxy = ChaosProxy::start(addr, Fault::KillAfter { bytes: 60 }, 0x07).unwrap();
        if let Ok(mut through) = Client::connect_timeout(proxy.addr(), CLIENT_IO, Some(CLIENT_IO)) {
            // demo.gcl is far longer than 60 bytes: the kill lands
            // inside the body, before the '.' terminator.
            let _ = through.open(EngineKind::Gridless, PlaneIndexKind::Sharded, &demo_gcl());
        }
    }
    let mut direct = direct_client(addr);
    let stats = direct.stats(None).unwrap();
    assert_eq!(
        stats.int_field("sessions"),
        Some(0),
        "a request that died mid-body must not register a session"
    );
    // And a clean OPEN + ROUTE still matches the reference.
    let (sid, _) = direct
        .open(EngineKind::Gridless, PlaneIndexKind::Sharded, &demo_gcl())
        .unwrap();
    direct.route(sid, false).unwrap();
    assert_eq!(direct.dump(sid).unwrap().body, expected);
    direct.shutdown().unwrap();
    handle.join().unwrap();
}

/// Slow loris on a raw socket: half a request line, then silence. The
/// server must answer `ERR TIMEOUT` and close instead of pinning the
/// worker.
#[test]
fn chaos_slow_loris_times_out_typed() {
    let (addr, handle) = spawn_server(chaos_config());
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"STA").unwrap();
    loris.set_read_timeout(Some(CLIENT_IO)).unwrap();
    let mut reader = BufReader::new(loris);
    match proto::read_response(&mut reader).unwrap() {
        Response::Err(e) => assert_eq!(e.code, ErrCode::Timeout, "{e}"),
        Response::Ok { head, .. } => panic!("unexpected OK {head}"),
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection closed after the typed reply");

    let mut direct = direct_client(addr);
    direct.ping().unwrap();
    direct.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert!(report.timeouts >= 1);
}

/// An oversize dot-framed body is answered `ERR TOO-LARGE`; the daemon
/// survives and keeps serving.
#[test]
fn chaos_oversize_body_is_rejected_typed() {
    let (addr, handle) = spawn_server(ServerConfig {
        limits: WireLimits {
            max_line: 1024,
            max_body: 512,
        },
        ..chaos_config()
    });
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(CLIENT_IO)).unwrap();
    stream.write_all(b"OPEN gridless flat\n").unwrap();
    for _ in 0..100 {
        stream.write_all(b"net filler 0 0 9 9\n").unwrap();
    }
    stream.write_all(b".\n").unwrap();
    let mut reader = BufReader::new(stream);
    match proto::read_response(&mut reader).unwrap() {
        Response::Err(e) => assert_eq!(e.code, ErrCode::TooLarge, "{e}"),
        Response::Ok { head, .. } => panic!("unexpected OK {head}"),
    }

    let mut direct = direct_client(addr);
    let stats = direct.stats(None).unwrap();
    assert_eq!(stats.int_field("sessions"), Some(0));
    direct.shutdown().unwrap();
    handle.join().unwrap();
}

/// The oversize body again, over 200 fresh connections, each sending
/// four times `max_body` line by line while the daemon has already
/// answered. A daemon that closed with the body unread would reset the
/// client mid-write or before it read the reply; every client must
/// finish its writes and read `ERR TOO-LARGE`, and the daemon must keep
/// serving.
#[test]
fn chaos_oversize_body_is_rejected_typed_on_every_connection() {
    let limits = WireLimits {
        max_line: 1024,
        max_body: 512,
    };
    let (addr, handle) = spawn_server(ServerConfig {
        limits,
        ..chaos_config()
    });
    let line = b"net filler 0 0 9 9\n";
    for attempt in 0..200 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(CLIENT_IO)).unwrap();
        let mut send = |bytes: &[u8]| {
            stream
                .write_all(bytes)
                .unwrap_or_else(|e| panic!("connection {attempt}: write failed: {e}"));
        };
        send(b"OPEN gridless flat\n");
        for _ in 0..(4 * limits.max_body).div_ceil(line.len()) {
            send(line);
        }
        send(b".\n");
        let mut reader = BufReader::new(stream);
        match proto::read_response(&mut reader) {
            Ok(Response::Err(e)) => assert_eq!(e.code, ErrCode::TooLarge, "{attempt}: {e}"),
            other => panic!("connection {attempt}: expected ERR TOO-LARGE, got {other:?}"),
        }
    }

    let mut direct = direct_client(addr);
    direct.ping().unwrap();
    let stats = direct.stats(None).unwrap();
    assert_eq!(stats.int_field("sessions"), Some(0));
    direct.shutdown().unwrap();
    handle.join().unwrap();
}

/// A worker panic (the gated `CRASH` probe) quarantines only its own
/// session; a bystander session's `DUMP` stays byte-identical to the
/// in-process reference.
#[test]
fn chaos_worker_panic_spares_bystanders() {
    let (addr, handle) = spawn_server(ServerConfig {
        crash_probe: true,
        ..chaos_config()
    });
    let expected = reference_dump();
    let mut direct = direct_client(addr);
    let (victim, _) = direct
        .open(EngineKind::Gridless, PlaneIndexKind::Sharded, &demo_gcl())
        .unwrap();
    let (bystander, _) = direct
        .open(EngineKind::Gridless, PlaneIndexKind::Sharded, &demo_gcl())
        .unwrap();
    direct.route(bystander, false).unwrap();

    match direct.request(&Request::Crash { sid: victim }).unwrap() {
        Response::Err(e) => assert_eq!(e.code, ErrCode::Quarantined, "{e}"),
        Response::Ok { head, .. } => panic!("unexpected OK {head}"),
    }
    match direct.dump(victim) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::Quarantined, "{e}"),
        other => panic!("expected ERR QUARANTINED, got {other:?}"),
    }
    assert_eq!(direct.dump(bystander).unwrap().body, expected);
    direct.close_session(victim).unwrap();
    direct.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert_eq!(report.panics, 1);
}

/// A quarantined request is traceable end to end: the `ERR QUARANTINED`
/// reply carries the request's trace id, and the same trace appears in
/// the process slow log (panics are always recorded, regardless of the
/// threshold). The server runs in-process, so the log is inspectable
/// directly.
#[test]
fn chaos_panic_trace_id_reaches_the_slow_log() {
    let (addr, handle) = spawn_server(ServerConfig {
        crash_probe: true,
        slow_log_ms: 0, // threshold logging off: panics only
        ..chaos_config()
    });
    let mut direct = direct_client(addr);
    let (victim, _) = direct
        .open(EngineKind::Gridless, PlaneIndexKind::Sharded, &demo_gcl())
        .unwrap();

    let message = match direct.request(&Request::Crash { sid: victim }).unwrap() {
        Response::Err(e) => {
            assert_eq!(e.code, ErrCode::Quarantined, "{e}");
            e.message
        }
        Response::Ok { head, .. } => panic!("unexpected OK {head}"),
    };
    // "...quarantined (trace t0000002a)" — the reply names the trace.
    let token = message
        .rsplit_once("(trace ")
        .and_then(|(_, tail)| tail.strip_suffix(')'))
        .unwrap_or_else(|| panic!("no trace id in quarantine reply {message:?}"));
    let trace = gcr::telemetry::TraceId::parse(token)
        .unwrap_or_else(|| panic!("unparseable trace id {token:?}"));
    assert!(
        gcr::telemetry::slow_log().contains_trace(trace),
        "trace {trace} of the panicked request is missing from the slow log"
    );

    direct.close_session(victim).unwrap();
    direct.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert_eq!(report.panics, 1);
}

/// A `DEADLINE 0` route under transport delay: the typed `ERR DEADLINE`
/// travels back through the faulty link and the session stays virgin.
#[test]
fn chaos_deadline_cancel_through_delayed_link() {
    let (addr, handle) = spawn_server(chaos_config());
    let expected = reference_dump();
    let mut direct = direct_client(addr);
    let (sid, _) = direct
        .open(EngineKind::Gridless, PlaneIndexKind::Sharded, &demo_gcl())
        .unwrap();
    {
        let proxy = ChaosProxy::start(addr, Fault::Delay { max_ms: 20 }, 0x0b).unwrap();
        let mut through =
            Client::connect_timeout(proxy.addr(), CLIENT_IO, Some(CLIENT_IO)).unwrap();
        match through.route_deadline(sid, false, Some(0)) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::Deadline, "{e}"),
            other => panic!("expected ERR DEADLINE, got {other:?}"),
        }
    }
    // Nothing committed; the retried route matches the reference.
    direct.route(sid, false).unwrap();
    assert_eq!(direct.dump(sid).unwrap().body, expected);
    direct.shutdown().unwrap();
    handle.join().unwrap();
}
