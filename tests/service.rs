//! The differential harness guarding `gcr-service`: the daemon is a
//! *transport*, not a different router — routes fetched through the wire
//! must be **byte-identical** to an in-process [`RoutingSession`] driven
//! through the same layout and ECO sequence, for every engine and both
//! plane indexes. On top of the differential: seeded encode/decode
//! sweeps of the protocol itself, the malformed-input error paths a
//! daemon must survive, and the registry behaviors (LRU eviction,
//! capacity, concurrent clients) observed through the wire.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;

use gcr::prelude::*;
use gcr::router::{apply_eco, parse_eco, NegotiationConfig};
use gcr::service::{
    dump_routing, format_stats, proto, Client, ClientError, EngineKind, ErrCode, Request, Response,
    RetryPolicy, RetryingClient, Server, ServerConfig, WireError, WireLimits,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Starts a server from an explicit config on an ephemeral loopback
/// port; returns its address and the join handle with the final report.
fn spawn_server_with(
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    thread::JoinHandle<gcr::service::ServerReport>,
) {
    let server = Server::bind(&config).expect("bind ephemeral loopback port");
    let addr = server.local_addr().unwrap();
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// [`spawn_server_with`] at the default hardening settings.
fn spawn_server(
    capacity: usize,
    workers: usize,
) -> (
    std::net::SocketAddr,
    thread::JoinHandle<gcr::service::ServerReport>,
) {
    spawn_server_with(ServerConfig {
        capacity,
        workers,
        ..ServerConfig::default()
    })
}

fn demo_gcl() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/demo.gcl")).unwrap()
}

fn demo_eco() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/demo.eco")).unwrap()
}

// --------------------------------------------------------------- proto

/// A random line that exercises the dot-stuffing and whitespace edges.
fn random_line(rng: &mut StdRng) -> String {
    let atoms = [
        ".",
        "..",
        ".x",
        "move a 1 0",
        "cell b 1 1 2 2",
        "#comment",
        "",
        "  indented",
        "net w 0 0 9 9",
        "reroute",
    ];
    atoms[rng.gen_range(0..atoms.len())].to_string()
}

fn random_body(rng: &mut StdRng) -> String {
    let lines = rng.gen_range(0..6usize);
    let mut body = String::new();
    for _ in 0..lines {
        body.push_str(&random_line(rng));
        body.push('\n');
    }
    body
}

fn random_request(rng: &mut StdRng) -> Request {
    let engines = EngineKind::ALL;
    let indexes = [PlaneIndexKind::Flat, PlaneIndexKind::Sharded];
    match rng.gen_range(0..9u32) {
        0 => Request::Ping,
        1 => Request::Open {
            engine: engines[rng.gen_range(0..engines.len())],
            index: indexes[rng.gen_range(0..indexes.len())],
            gcl: random_body(rng),
        },
        2 => Request::Eco {
            sid: rng.gen_range(0..1000u64),
            eco: random_body(rng),
        },
        3 => Request::Route {
            sid: rng.gen_range(0..1000u64),
            full: rng.gen(),
            deadline_ms: rng.gen::<bool>().then(|| rng.gen_range(0..10_000u64)),
        },
        4 => Request::RipUp {
            sid: rng.gen_range(0..1000u64),
            net: format!("net{}", rng.gen_range(0..50u32)),
        },
        5 => Request::Stats {
            sid: rng.gen::<bool>().then(|| rng.gen_range(0..1000u64)),
        },
        6 => Request::Dump {
            sid: rng.gen_range(0..1000u64),
        },
        7 => Request::Close {
            sid: rng.gen_range(0..1000u64),
        },
        _ => Request::Shutdown,
    }
}

fn random_response(rng: &mut StdRng) -> Response {
    if rng.gen() {
        Response::Ok {
            head: format!("head{}", rng.gen_range(0..100u32)),
            body: random_body(rng),
        }
    } else {
        let codes = ErrCode::ALL;
        Response::Err(WireError::new(
            codes[rng.gen_range(0..codes.len())],
            format!("reason {}", rng.gen_range(0..100u32)),
        ))
    }
}

#[test]
fn seeded_request_roundtrip_sweep() {
    for case in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let req = random_request(&mut rng);
        let mut wire = Vec::new();
        proto::write_request(&mut wire, &req).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        let back = proto::read_request(&mut reader)
            .unwrap()
            .unwrap_or_else(|| panic!("case {case}: EOF"))
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back, req, "case {case}");
        assert!(
            proto::read_request(&mut reader).unwrap().is_none(),
            "case {case}: frame must consume exactly itself"
        );
        // Encoding is a fixed point: encode(decode(encode(x))) == encode(x).
        let mut rewire = Vec::new();
        proto::write_request(&mut rewire, &back).unwrap();
        assert_eq!(rewire, wire, "case {case}: canonical encoding");
    }
}

#[test]
fn seeded_response_roundtrip_sweep() {
    for case in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x5eed ^ case);
        let resp = random_response(&mut rng);
        let mut wire = Vec::new();
        proto::write_response(&mut wire, &resp).unwrap();
        let back = proto::read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(back, resp, "case {case}");
    }
}

#[test]
fn pipelined_requests_decode_in_sequence() {
    // Several frames on one stream (what a keep-alive connection sends).
    let requests = [
        Request::Ping,
        Request::Eco {
            sid: 3,
            eco: ".dotted\nmove a 1 0\n".to_string(),
        },
        Request::Route {
            sid: 3,
            full: true,
            deadline_ms: None,
        },
        Request::Negotiate {
            sid: 3,
            max_iters: Some(2),
            deadline_ms: Some(750),
        },
        Request::Shutdown,
    ];
    let mut wire = Vec::new();
    for r in &requests {
        proto::write_request(&mut wire, r).unwrap();
    }
    let mut reader = BufReader::new(wire.as_slice());
    for r in &requests {
        let got = proto::read_request(&mut reader).unwrap().unwrap().unwrap();
        assert_eq!(&got, r);
    }
    assert!(proto::read_request(&mut reader).unwrap().is_none());
}

// ---------------------------------------------------- malformed inputs

/// Sends raw bytes and returns the (typed) first response.
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reader = BufReader::new(stream);
    proto::read_response(&mut reader).unwrap()
}

#[test]
fn malformed_inputs_get_typed_errors() {
    let (addr, handle) = spawn_server(4, 2);
    for (bytes, code) in [
        (&b"FROBNICATE\n"[..], ErrCode::UnknownVerb),
        (&b"ROUTE zebra\n"[..], ErrCode::BadRequest),
        (&b"ROUTE\n"[..], ErrCode::BadRequest),
        (&b"OPEN gridless\n"[..], ErrCode::BadRequest),
        (&b"OPEN warp flat\n.\n"[..], ErrCode::BadRequest),
        // Truncated dot-framed body: EOF before the '.' terminator.
        (
            &b"OPEN gridless flat\ngcl 1\nbounds 0 0 9 9\n"[..],
            ErrCode::Truncated,
        ),
        (&b"ECO 1\nmove a 1 0\n"[..], ErrCode::Truncated),
        // Bodies that frame correctly but do not parse.
        (
            &b"OPEN gridless flat\nnot a layout\n.\n"[..],
            ErrCode::Parse,
        ),
        // Valid frame, nonexistent session.
        (&b"ROUTE 9999\n"[..], ErrCode::UnknownSession),
        (&b"DUMP 9999\n"[..], ErrCode::UnknownSession),
        (&b"CLOSE 9999\n"[..], ErrCode::UnknownSession),
    ] {
        match raw_exchange(addr, bytes) {
            Response::Err(e) => assert_eq!(e.code, code, "{bytes:?}: {e}"),
            Response::Ok { head, .. } => panic!("{bytes:?}: unexpected OK {head}"),
        }
    }
    // A layout that parses but fails validation (pin outside bounds).
    let gcl = b"OPEN gridless flat\ngcl 1\nbounds 0 0 9 9\nnet w\nterminal a\npin - 50 50\nterminal b\npin - 1 1\n.\n";
    match raw_exchange(addr, gcl) {
        Response::Err(e) => assert_eq!(e.code, ErrCode::Layout, "{e}"),
        Response::Ok { head, .. } => panic!("unexpected OK {head}"),
    }
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert!(report.errors >= 12, "every bad exchange was counted");
}

#[test]
fn eco_error_paths_are_typed() {
    let (addr, handle) = spawn_server(4, 1);
    let mut client = Client::connect(addr).unwrap();
    let (sid, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Flat, &demo_gcl())
        .unwrap();
    // Unknown net / cell names inside an otherwise valid change list.
    match client.eco(sid, "ripup nosuchnet\n") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::UnknownName),
        other => panic!("expected UNKNOWN-NAME, got {other:?}"),
    }
    match client.eco(sid, "move nosuchcell 1 0\n") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::UnknownName),
        other => panic!("expected UNKNOWN-NAME, got {other:?}"),
    }
    // Grammar errors carry the PARSE code.
    match client.eco(sid, "frobnicate\n") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::Parse),
        other => panic!("expected PARSE, got {other:?}"),
    }
    // Duplicate net names are rejected at the layout layer.
    match client.eco(sid, "net clk 1 1 5 5\n") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::Layout),
        other => panic!("expected LAYOUT, got {other:?}"),
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// An alley layout congested at the server's default config (pitch 1):
/// three nets cross a 2-wide channel between two macros, so the plain
/// pass overflows and `NEGOTIATE` has real work to do over the wire.
fn alley_gcl() -> String {
    let mut text = String::from(
        "gcl 1\nbounds 0 0 60 40\nspacing 1\n\
         cell a 10 10 29 30\ncell b 31 10 50 30\n",
    );
    for (i, x) in [29i64, 30, 31].into_iter().enumerate() {
        text.push_str(&format!(
            "net n{i}\nterminal s\npin - {x} 0\nterminal t\npin - {x} 40\n"
        ));
    }
    text
}

/// `NEGOTIATE` over the wire must report exactly what the in-process
/// negotiation driver computes, and leave the session state (dump,
/// stats) byte-identical to the in-process twin.
#[test]
fn negotiate_verb_equals_in_process() {
    let gcl = alley_gcl();
    let (addr, handle) = spawn_server(4, 2);
    let mut client = Client::connect(addr).unwrap();
    let (sid, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Sharded, &gcl)
        .unwrap();

    let layout = gcr::layout::format::parse(&gcl).unwrap();
    let mut local = RoutingSession::builder(layout)
        .config(RouterConfig::default())
        .index(PlaneIndexKind::Sharded)
        .build();
    let report = local.route_negotiated(&NegotiationConfig::default());
    assert!(
        report.before.total_overflow() > 0,
        "the alley must congest for this test to mean anything"
    );

    let served = client.negotiate(sid, None).unwrap();
    for (key, value) in [
        ("iterations", report.iterations as i64),
        ("overflow-before", report.before.total_overflow()),
        ("overflow-after", report.after.total_overflow()),
        ("rerouted", report.rerouted as i64),
        ("routed", report.routing.routed_count() as i64),
        ("failed", report.routing.failures.len() as i64),
        ("wire-length", report.routing.wire_length()),
    ] {
        assert_eq!(served.int_field(key), Some(value), "{key}");
    }
    assert_eq!(
        served.field("converged"),
        Some(if report.converged { "true" } else { "false" })
    );
    assert_eq!(
        client.dump(sid).unwrap().body,
        dump_routing(&local.routing()),
        "post-negotiate dump"
    );

    // A capped run through the wire matches a capped run in process.
    let mut capped_local = RoutingSession::builder(local.layout().clone())
        .config(RouterConfig::default())
        .index(PlaneIndexKind::Sharded)
        .build();
    let mut ncfg = NegotiationConfig::default();
    ncfg.max_iters(1);
    let capped = capped_local.route_negotiated(&ncfg);
    let served_capped = client.negotiate(sid, Some(1)).unwrap();
    assert_eq!(
        served_capped.int_field("iterations"),
        Some(capped.iterations as i64)
    );
    assert_eq!(
        served_capped.int_field("overflow-after"),
        Some(capped.after.total_overflow())
    );

    // Unknown session: the typed UNKNOWN-SESSION error, like every other verb.
    match client.negotiate(sid + 999, None) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::UnknownSession),
        other => panic!("expected UNKNOWN-SESSION, got {other:?}"),
    }

    client.close_session(sid).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

// ------------------------------------------------ loopback differential

/// Drives the same layout + ECO sequence through the daemon and through
/// an in-process session; every served artifact must be byte-identical
/// to the in-process one.
fn assert_served_equals_in_process(engine: EngineKind, index: PlaneIndexKind) {
    let what = format!("{engine}/{}", gcr::service::index_name(index));
    let gcl = demo_gcl();
    let eco = demo_eco();
    let (addr, handle) = spawn_server(4, 2);
    let mut client = Client::connect(addr).unwrap();
    let (sid, open) = client.open(engine, index, &gcl).unwrap();
    assert_eq!(open.int_field("nets"), Some(3), "{what}");

    // In-process twin: same layout text, same engine, same index.
    let layout = gcr::layout::format::parse(&gcl).unwrap();
    let mut local = RoutingSession::builder(layout)
        .config(RouterConfig::default())
        .engine(engine.build())
        .index(index)
        .build();

    // 1. Cold full route.
    let served_route = client.route(sid, false).unwrap();
    let local_routing = local.route_all();
    assert_eq!(served_route.field("mode"), Some("full"), "{what}");
    assert_eq!(
        served_route.int_field("routed"),
        Some(local_routing.routed_count() as i64),
        "{what}"
    );
    assert_eq!(
        served_route.int_field("wire-length"),
        Some(local_routing.wire_length()),
        "{what}"
    );
    assert_eq!(
        client.dump(sid).unwrap().body,
        dump_routing(&local.routing()),
        "{what}: post-route dump"
    );

    // 2. ECO replay (the demo change list, byte for byte).
    let served_eco = client.eco(sid, &eco).unwrap();
    let report = apply_eco(&mut local, &parse_eco(&eco).unwrap()).unwrap();
    assert_eq!(
        served_eco.int_field("rerouted"),
        Some(report.rerouted as i64),
        "{what}"
    );
    assert_eq!(
        served_eco.int_field("failed"),
        Some(report.failed as i64),
        "{what}"
    );
    assert_eq!(
        client.dump(sid).unwrap().body,
        dump_routing(&local.routing()),
        "{what}: post-eco dump"
    );

    // 3. Warm rip-up + dirty reroute (the ECO-loop hot path).
    let victim = "data";
    let served_rip = client.rip_up(sid, victim).unwrap();
    let local_id = local.layout().net_by_name(victim).unwrap();
    let had = local.rip_up(local_id);
    assert_eq!(
        served_rip.field("had-route"),
        Some(if had { "true" } else { "false" }),
        "{what}"
    );
    let served_reroute = client.route(sid, false).unwrap();
    let outcome = local.reroute_dirty();
    assert_eq!(served_reroute.field("mode"), Some("dirty"), "{what}");
    assert_eq!(
        served_reroute.int_field("attempted"),
        Some(outcome.attempted as i64),
        "{what}"
    );
    let dump = client.dump(sid).unwrap().body;
    assert_eq!(dump, dump_routing(&local.routing()), "{what}: final dump");

    // 4. Stats: the session-stat lines must match exactly (the served
    // reply appends service-level lines after them).
    let served_stats = client.stats(Some(sid)).unwrap().body;
    let expected = format_stats(&local.stats());
    assert!(
        served_stats.starts_with(&expected),
        "{what}: stats\nserved:\n{served_stats}\nexpected prefix:\n{expected}"
    );

    client.close_session(sid).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn served_routes_equal_in_process_routes() {
    for engine in [
        EngineKind::Gridless,
        EngineKind::Grid,
        EngineKind::Hightower,
    ] {
        for index in [PlaneIndexKind::Flat, PlaneIndexKind::Sharded] {
            assert_served_equals_in_process(engine, index);
        }
    }
}

// -------------------------------------------------- registry via wire

#[test]
fn capacity_evicts_lru_over_the_wire() {
    let (addr, handle) = spawn_server(2, 1);
    let mut client = Client::connect(addr).unwrap();
    let gcl = demo_gcl();
    let (a, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Flat, &gcl)
        .unwrap();
    let (b, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Flat, &gcl)
        .unwrap();
    // Touch a so b is the LRU victim.
    client.stats(Some(a)).unwrap();
    let (c, open) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Flat, &gcl)
        .unwrap();
    assert_eq!(open.int_field("evicted"), Some(b as i64));
    // The evicted session is gone; the survivors still answer.
    match client.stats(Some(b)) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::UnknownSession),
        other => panic!("expected UNKNOWN-SESSION, got {other:?}"),
    }
    client.stats(Some(a)).unwrap();
    client.stats(Some(c)).unwrap();
    let server_stats = client.stats(None).unwrap();
    assert_eq!(server_stats.int_field("sessions"), Some(2));
    assert_eq!(server_stats.int_field("evictions"), Some(1));
    client.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert_eq!(report.evictions, 1);
    assert_eq!(report.sessions_open, 2);
}

#[test]
fn concurrent_clients_route_independent_sessions() {
    let (addr, handle) = spawn_server(8, 4);
    let gcl = demo_gcl();
    let wires: Vec<String> = thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let gcl = &gcl;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let (sid, _) = client
                        .open(EngineKind::Gridless, PlaneIndexKind::Sharded, gcl)
                        .unwrap();
                    client.route(sid, false).unwrap();
                    let dump = client.dump(sid).unwrap().body;
                    client.close_session(sid).unwrap();
                    dump
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Four independent sessions over the same layout: identical dumps.
    for w in &wires[1..] {
        assert_eq!(w, &wires[0]);
    }
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert_eq!(report.sessions_open, 0);
    assert!(report.connections >= 5);
}

// ------------------------------------------------- hardening via wire

/// A `DEADLINE 0` budget cancels deterministically before any work
/// commits: the request answers the typed `ERR DEADLINE`, the session
/// is byte-identical to its pre-request state, and an uninterrupted
/// retry produces exactly what a never-cancelled run produces.
#[test]
fn route_deadline_zero_is_typed_and_rolls_back() {
    let gcl = alley_gcl();
    let (addr, handle) = spawn_server(4, 2);
    let mut client = Client::connect(addr).unwrap();
    let (sid, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Sharded, &gcl)
        .unwrap();

    // In-process twin that never sees a cancellation.
    let layout = gcr::layout::format::parse(&gcl).unwrap();
    let mut local = RoutingSession::builder(layout)
        .config(RouterConfig::default())
        .index(PlaneIndexKind::Sharded)
        .build();
    let virgin_dump = dump_routing(&local.routing());

    match client.route_deadline(sid, false, Some(0)) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::Deadline, "{e}"),
        other => panic!("expected ERR DEADLINE, got {other:?}"),
    }
    // Nothing committed: the dump equals a session that never routed.
    assert_eq!(client.dump(sid).unwrap().body, virgin_dump);

    // Retry with a generous deadline: identical to the unbudgeted run
    // (the budget stops work, it never steers it).
    local.route_all();
    let expected = dump_routing(&local.routing());
    client.route_deadline(sid, false, Some(60_000)).unwrap();
    assert_eq!(client.dump(sid).unwrap().body, expected);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn negotiate_deadline_zero_is_typed_and_rolls_back() {
    let gcl = alley_gcl();
    let (addr, handle) = spawn_server(4, 2);
    let mut client = Client::connect(addr).unwrap();
    let (sid, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Sharded, &gcl)
        .unwrap();
    client.route(sid, false).unwrap();
    let pre = client.dump(sid).unwrap().body;

    match client.negotiate_deadline(sid, None, Some(0)) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::Deadline, "{e}"),
        other => panic!("expected ERR DEADLINE, got {other:?}"),
    }
    // The checkpoint restore leaves the session byte-identical.
    assert_eq!(client.dump(sid).unwrap().body, pre);

    // Cancelled-then-retried equals uninterrupted, against an
    // in-process twin driven without any budget.
    let layout = gcr::layout::format::parse(&gcl).unwrap();
    let mut local = RoutingSession::builder(layout)
        .config(RouterConfig::default())
        .index(PlaneIndexKind::Sharded)
        .build();
    local.route_all();
    local.route_negotiated(&NegotiationConfig::default());
    client.negotiate_deadline(sid, None, Some(60_000)).unwrap();
    assert_eq!(
        client.dump(sid).unwrap().body,
        dump_routing(&local.routing())
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn oversize_line_and_body_answer_too_large() {
    let (addr, handle) = spawn_server_with(ServerConfig {
        capacity: 2,
        workers: 1,
        limits: WireLimits {
            max_line: 128,
            max_body: 1024,
        },
        ..ServerConfig::default()
    });
    // A request line past max_line.
    let mut long_line = vec![b'A'; 1000];
    long_line.push(b'\n');
    match raw_exchange(addr, &long_line) {
        Response::Err(e) => assert_eq!(e.code, ErrCode::TooLarge, "{e}"),
        Response::Ok { head, .. } => panic!("unexpected OK {head}"),
    }
    // A dot-framed body past max_body (still properly terminated).
    let mut oversize = b"OPEN gridless flat\n".to_vec();
    for _ in 0..200 {
        oversize.extend_from_slice(b"net filler 0 0 9 9\n");
    }
    oversize.extend_from_slice(b".\n");
    match raw_exchange(addr, &oversize) {
        Response::Err(e) => assert_eq!(e.code, ErrCode::TooLarge, "{e}"),
        Response::Ok { head, .. } => panic!("unexpected OK {head}"),
    }
    // The server survives both and still answers.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert!(report.errors >= 2);
}

/// An idle keep-alive connection past the read timeout closes quietly
/// (EOF, no reply); a slow-loris that stalls *mid-request* is answered
/// `ERR TIMEOUT` before the close.
#[test]
fn read_timeout_idle_closes_quietly_and_midframe_is_typed() {
    let (addr, handle) = spawn_server_with(ServerConfig {
        capacity: 2,
        workers: 2,
        read_timeout_ms: 200,
        ..ServerConfig::default()
    });

    // Half-open idle connection: never sends a byte.
    let idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    let n = (&idle).read_to_end(&mut buf).unwrap();
    assert_eq!(n, 0, "idle timeout closes without a reply");

    // Slow loris: part of a request line, then silence.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"ROU").unwrap();
    loris
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(loris);
    match proto::read_response(&mut reader).unwrap() {
        Response::Err(e) => assert_eq!(e.code, ErrCode::Timeout, "{e}"),
        Response::Ok { head, .. } => panic!("unexpected OK {head}"),
    }

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert!(report.timeouts >= 2, "both timeouts counted: {report:?}");
}

/// With one worker pinned by a keep-alive connection and the queue
/// full, the acceptor sheds the next connection with `ERR BUSY`; a
/// [`RetryingClient`] rides the backoff until capacity frees up.
#[test]
fn full_queue_sheds_busy_and_retry_recovers() {
    let (addr, handle) = spawn_server_with(ServerConfig {
        capacity: 2,
        workers: 1,
        queue: 1,
        read_timeout_ms: 500,
        ..ServerConfig::default()
    });
    // Pin the only worker with a live keep-alive connection...
    let mut pinned = Client::connect(addr).unwrap();
    pinned.ping().unwrap();
    // ...fill the one queue slot...
    let queued = TcpStream::connect(addr).unwrap();
    // ...and the next connection is shed inline.
    let mut shed = Client::connect(addr).unwrap();
    match shed.ping() {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::Busy, "{e}"),
        other => panic!("expected ERR BUSY, got {other:?}"),
    }

    // A retrying client keeps backing off on BUSY; once the pinned
    // connection closes, a retry lands and succeeds.
    let retrier = thread::spawn(move || {
        let mut client = RetryingClient::new(
            addr.to_string(),
            RetryPolicy {
                max_retries: 40,
                base: std::time::Duration::from_millis(10),
                cap: std::time::Duration::from_millis(100),
                ..RetryPolicy::default()
            },
        );
        client
            .expect_ok(&Request::Ping)
            .expect("retry until served")
    });
    thread::sleep(std::time::Duration::from_millis(100));
    drop(pinned);
    drop(queued);
    retrier.join().unwrap();

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert!(report.shed >= 1, "shed connections counted: {report:?}");
}

/// A request that panics poisons only its own session: the worker and
/// connection survive, the session answers `ERR QUARANTINED` until
/// `CLOSE`d, and every other session keeps serving byte-identical
/// state.
#[test]
fn worker_panic_quarantines_only_its_session() {
    let (addr, handle) = spawn_server_with(ServerConfig {
        capacity: 4,
        workers: 2,
        crash_probe: true,
        ..ServerConfig::default()
    });
    let gcl = demo_gcl();
    let mut client = Client::connect(addr).unwrap();
    let (victim, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Flat, &gcl)
        .unwrap();
    let (bystander, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Flat, &gcl)
        .unwrap();
    client.route(victim, false).unwrap();
    client.route(bystander, false).unwrap();
    let bystander_dump = client.dump(bystander).unwrap().body;

    // The gated probe panics inside the request; the reply is typed
    // and arrives on the SAME connection (the worker survived).
    match client.request(&Request::Crash { sid: victim }).unwrap() {
        Response::Err(e) => assert_eq!(e.code, ErrCode::Quarantined, "{e}"),
        Response::Ok { head, .. } => panic!("unexpected OK {head}"),
    }
    // The victim is quarantined for everything but CLOSE.
    match client.route(victim, false) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::Quarantined, "{e}"),
        other => panic!("expected ERR QUARANTINED, got {other:?}"),
    }
    match client.dump(victim) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::Quarantined, "{e}"),
        other => panic!("expected ERR QUARANTINED, got {other:?}"),
    }
    // The bystander session is untouched, byte for byte.
    assert_eq!(client.dump(bystander).unwrap().body, bystander_dump);
    // CLOSE reclaims the quarantined slot; a fresh OPEN works.
    client.close_session(victim).unwrap();
    let (fresh, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Flat, &gcl)
        .unwrap();
    client.route(fresh, false).unwrap();

    client.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert_eq!(report.panics, 1);
}

/// Without the opt-in probe config, `CRASH` is just an unknown verb.
#[test]
fn crash_probe_is_gated_off_by_default() {
    let (addr, handle) = spawn_server(2, 1);
    let mut client = Client::connect(addr).unwrap();
    match client.request(&Request::Crash { sid: 1 }).unwrap() {
        Response::Err(e) => assert_eq!(e.code, ErrCode::UnknownVerb, "{e}"),
        Response::Ok { head, .. } => panic!("unexpected OK {head}"),
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
}

// --------------------------------------------------- tracing via wire

/// Serializes the scenarios that flip process-global telemetry state
/// against each other (the kill switch, the shared slow ring): a
/// kill-switched window must not race another test's sampled request.
fn tracing_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `TRACE ROUTE` answers the inner reply plus a parseable span tree:
/// one request root, the verb's op span, one net span per net, and the
/// head's span count agreeing with the body. `EXPLAIN` then attributes
/// a routed net from the committed state the traced route left behind.
#[test]
fn trace_verb_returns_a_parseable_span_tree() {
    let _guard = tracing_lock();
    let (addr, handle) = spawn_server(4, 2);
    let mut client = Client::connect(addr).unwrap();
    let (sid, open) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Flat, &demo_gcl())
        .unwrap();
    let nets = open.int_field("nets").unwrap();

    let reply = client
        .trace(
            sid,
            Request::Route {
                sid,
                full: false,
                deadline_ms: None,
            },
        )
        .unwrap();
    let mut head = reply.head.split_whitespace();
    assert_eq!(head.next(), Some("trace"));
    let tid = head.next().unwrap();
    assert!(tid.starts_with('t'), "trace id token: {tid}");
    assert_eq!(head.next(), Some("spans"));
    let spans: usize = head.next().unwrap().parse().expect("span count");
    // The inner ROUTE reply still leads the body, untouched.
    assert_eq!(reply.field("mode"), Some("full"));
    assert_eq!(reply.int_field("failed"), Some(0));

    let tree = reply.span_tree().expect("span grammar parses back");
    assert_eq!(tree.span_count(), spans, "head count matches the tree");
    assert_eq!(tree.root.name, "request");
    assert_eq!(tree.root.children.len(), 1, "one op under the request");
    let op = &tree.root.children[0];
    assert_eq!(op.name, "route");
    let net_spans = tree.find_all("net");
    assert_eq!(net_spans.len() as i64, nets, "one span per routed net");
    for net in &net_spans {
        assert!(
            net.counter("expanded").is_some(),
            "net {} carries its search effort",
            net.label
        );
    }

    // EXPLAIN attributes the committed route: outcome, attempts, and
    // the wire length against the pin-bbox lower bound.
    let explain = client.explain(sid, "clk").unwrap();
    assert_eq!(explain.field("status"), Some("routed"));
    assert_eq!(explain.int_field("attempts"), Some(1));
    assert!(explain.int_field("expanded").unwrap() > 0);
    assert_eq!(explain.int_field("seeded"), Some(0), "a cold route");
    assert!(
        explain.int_field("wire-length").unwrap() >= explain.int_field("lower-bound").unwrap(),
        "no route beats the half-perimeter bound"
    );

    // A traced rip-up + reroute hands clk its ripped route: the search
    // span and EXPLAIN both show the search that began with it.
    let eco = Request::Eco {
        sid,
        eco: "ripup clk\nreroute\n".to_string(),
    };
    let tree = client.trace(sid, eco).unwrap().span_tree().unwrap();
    let searches = tree.find_all("search");
    assert_eq!(searches.len(), 1, "clk is one connection");
    assert_eq!(searches[0].counter("seeded"), Some(1));
    let reexplain = client.explain(sid, "clk").unwrap();
    assert_eq!(reexplain.int_field("attempts"), Some(2));
    assert_eq!(reexplain.int_field("seeded"), Some(1));
    assert_eq!(reexplain.field("expanded"), explain.field("expanded"));
    match client.explain(sid, "nosuchnet") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrCode::UnknownName),
        other => panic!("expected UNKNOWN-NAME, got {other:?}"),
    }

    client.close_session(sid).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// With the `GCR_TELEMETRY` kill switch thrown, `TRACE` serves the
/// inner request untraced and says so: a `spans 0` head over the plain
/// inner body, no span lines.
#[test]
fn kill_switched_trace_answers_spans_zero() {
    let _guard = tracing_lock();
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            gcr::telemetry::set_enabled(true);
        }
    }
    let _restore = Restore;
    let (addr, handle) = spawn_server(4, 1);
    let mut client = Client::connect(addr).unwrap();
    let (sid, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Flat, &demo_gcl())
        .unwrap();

    gcr::telemetry::set_enabled(false);
    let reply = client
        .trace(
            sid,
            Request::Route {
                sid,
                full: false,
                deadline_ms: None,
            },
        )
        .unwrap();
    assert!(
        reply.head.ends_with("spans 0"),
        "kill-switched head: {}",
        reply.head
    );
    assert_eq!(reply.field("mode"), Some("full"), "the route still ran");
    assert!(reply.span_tree().is_none(), "no span lines in the body");
    gcr::telemetry::set_enabled(true);

    client.close_session(sid).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// `EXPLAIN` for a net sealed off by cell geometry names the binding
/// cause over the wire: `blocked-goal`, with the committed error text
/// as detail and no wire length (nothing committed).
#[test]
fn explain_names_the_binding_cause_for_a_sealed_net() {
    // A donut of four touching cells seals (75,50); the net can never
    // route. Spacing 0 keeps the touching walls legal geometry.
    let gcl = "gcl 1\nbounds 0 0 100 100\nspacing 0\n\
               cell south 58 26 92 32\ncell north 58 68 92 74\n\
               cell west 58 26 64 74\ncell east 86 26 92 74\n\
               net cross\nterminal a\npin - 5 50\nterminal b\npin - 75 50\n";
    let (addr, handle) = spawn_server(4, 1);
    let mut client = Client::connect(addr).unwrap();
    let (sid, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Sharded, gcl)
        .unwrap();
    let route = client.route(sid, false).unwrap();
    assert_eq!(route.int_field("failed"), Some(1));

    let explain = client.explain(sid, "cross").unwrap();
    assert_eq!(explain.field("status"), Some("failed"));
    assert_eq!(explain.field("cause"), Some("blocked-goal"));
    assert!(explain.field("detail").is_some(), "error text rides along");
    assert_eq!(explain.field("wire-length"), None, "nothing committed");
    assert!(explain.int_field("attempts").unwrap() >= 1);

    client.close_session(sid).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A daemon sampling every request retains each request's full span
/// tree in the slow ring — readable after the fact, with the occupancy
/// gauge live in the `METRICS` exposition.
#[test]
fn sampled_requests_retain_their_span_trees() {
    let _guard = tracing_lock();
    let (addr, handle) = spawn_server_with(ServerConfig {
        capacity: 4,
        workers: 1,
        trace_sample_rate: 1.0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let (sid, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Flat, &demo_gcl())
        .unwrap();
    let recorded_before = gcr::telemetry::slow_log().recorded();
    client.route(sid, false).unwrap();

    // The sampled route landed in the ring with its recorder attached;
    // the tree assembles lazily at read time.
    assert!(gcr::telemetry::slow_log().recorded() > recorded_before);
    let entry = gcr::telemetry::slow_log()
        .snapshot()
        .into_iter()
        .rev()
        .find(|e| e.verb == "route" && e.spans.is_some())
        .expect("the sampled route is retained with its spans");
    let tree = entry.spans.as_ref().unwrap().finish();
    assert_eq!(tree.root.name, "request");
    assert!(
        !tree.find_all("net").is_empty(),
        "the retained tree carries the per-net decomposition"
    );

    // The occupancy gauge tracks the ring over the wire.
    let scrape = client.metrics().unwrap();
    let held = gcr::telemetry::parse_exposition(&scrape.body)
        .iter()
        .find(|s| s.name == "gcr_service_slow_log_entries")
        .map(|s| s.value as u64)
        .expect("occupancy gauge exposed");
    assert!(held >= 1, "at least our sampled entry is held");

    client.close_session(sid).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn draining_server_rejects_new_work_then_exits() {
    let (addr, handle) = spawn_server(2, 2);
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    // The shutdown connection is closed after the reply.
    assert!(matches!(client.ping(), Err(ClientError::Io(_))));
    handle.join().unwrap();
    // And the port stops accepting (give the OS a beat to tear down).
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(
        Client::connect(addr).is_err() || {
            // A connect may still succeed during teardown; a request must not.
            let mut c = Client::connect(addr).unwrap();
            c.ping().is_err()
        }
    );
}
