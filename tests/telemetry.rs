//! The telemetry differential: the daemon's `STATS` server form and its
//! `METRICS` exposition read the *same* registry atomics, so the two
//! views must agree exactly; the load generator's client-side histogram
//! shares the server histogram's bucket ladder, so the two ends of the
//! wire must agree to within a bucket on compute-dominated mixes.
//!
//! Registry counters are process-global and the harness runs `#[test]`s
//! on multiple threads, so every scenario that reads absolute counter
//! values serializes on [`telemetry_lock`] — within the lock, only that
//! scenario's server is generating traffic.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use gcr::prelude::*;
use gcr::service::{
    loadgen, proto, Client, EngineKind, ErrCode, Request, Response, Server, ServerConfig,
    ServerReport, VERBS,
};
use gcr::telemetry::{
    histogram_buckets, parse_exposition, quantile_bucket_index, Sample, SpanNode,
};

/// Serializes scenarios that assert absolute values of process-global
/// counters.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn spawn_server(config: ServerConfig) -> (SocketAddr, thread::JoinHandle<ServerReport>) {
    let server = Server::bind(&config).expect("bind ephemeral loopback port");
    let addr = server.local_addr().unwrap();
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn demo_gcl() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/demo.gcl")).unwrap()
}

/// The value of a counter series in an exposition snapshot (0 if the
/// series has not been registered yet).
fn series_value(samples: &[Sample], name: &str, labels: &[(&str, &str)]) -> u64 {
    samples
        .iter()
        .find(|s| s.name == name && s.has_labels(labels) && s.label("le").is_none())
        .map_or(0, |s| s.value as u64)
}

/// An `OK server` STATS body field, as an integer.
fn stats_int(body: &str, key: &str) -> Option<i64> {
    body.lines().find_map(|line| {
        let (k, v) = line.split_once(' ')?;
        (k == key).then(|| v.parse().ok())?
    })
}

/// The server's error count as `STATS` reports it, and as `METRICS`
/// reports it summed over every error code.
fn error_counts(client: &mut Client) -> (i64, u64) {
    let stats = client.stats(None).unwrap();
    let from_metrics = parse_exposition(&client.metrics().unwrap().body)
        .iter()
        .filter(|s| s.name == "gcr_service_errors_total")
        .map(|s| s.value as u64)
        .sum();
    (stats_int(&stats.body, "errors").unwrap(), from_metrics)
}

/// The server-form `STATS` session totals (`session-requests`,
/// `session-wall-us`), checked equal to the `METRICS` series they read.
fn session_totals(client: &mut Client) -> (i64, i64) {
    let stats = client.stats(None).unwrap();
    let samples = parse_exposition(&client.metrics().unwrap().body);
    let from_stats = (
        stats_int(&stats.body, "session-requests").unwrap(),
        stats_int(&stats.body, "session-wall-us").unwrap(),
    );
    let from_metrics = (
        series_value(&samples, "gcr_service_session_requests_total", &[]) as i64,
        series_value(&samples, "gcr_service_session_wall_us_total", &[]) as i64,
    );
    assert_eq!(from_stats, from_metrics, "session totals: {stats:?}");
    from_stats
}

/// STATS and METRICS must report identical per-verb request counts:
/// both read the same registered atomics. The one systematic offset is
/// the `metrics` verb itself — requests are counted at read time, so
/// the scrape that follows the STATS call adds one to its own series.
/// Errors agree too, including the `ERR TIMEOUT` a half-sent request
/// draws, which is answered outside the per-request path. So do the
/// session totals, which no `CLOSE`, LRU eviction or panic quarantine
/// takes back.
#[test]
fn stats_and_metrics_agree_on_per_verb_counts() {
    let _guard = telemetry_lock();
    let (addr, handle) = spawn_server(ServerConfig {
        capacity: 4,
        workers: 2,
        read_timeout_ms: 500,
        crash_probe: true,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    client.ping().unwrap();
    let (sid, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Sharded, &demo_gcl())
        .unwrap();
    client.route(sid, false).unwrap();
    client.eco(sid, "ripup clk\nreroute\n").unwrap();
    client.stats(Some(sid)).unwrap();

    let stats = client.stats(None).unwrap();
    let scrape = client.metrics().unwrap();
    let samples = parse_exposition(&scrape.body);
    for verb in VERBS {
        let from_stats = stats_int(&stats.body, &format!("verb-{verb}"))
            .unwrap_or_else(|| panic!("STATS body is missing verb-{verb}: {}", stats.body));
        let mut from_metrics =
            series_value(&samples, "gcr_service_requests_total", &[("verb", verb)]) as i64;
        if verb == "metrics" {
            // The scrape itself was counted before it was served.
            from_metrics -= 1;
        }
        assert_eq!(
            from_stats, from_metrics,
            "verb {verb}: STATS and METRICS disagree"
        );
    }
    // Gauges agree too: the connection is being served (not queued), so
    // both views see the same queue depth.
    let queue_from_stats = stats_int(&stats.body, "queue-depth").unwrap();
    let queue_from_metrics = samples
        .iter()
        .find(|s| s.name == "gcr_service_queue_depth")
        .map_or(0.0, |s| s.value) as i64;
    assert_eq!(queue_from_stats, queue_from_metrics);
    // Session accounting flows to both views from the same counters.
    let (session_requests, _) = session_totals(&mut client);
    assert!(session_requests >= 3, "route/eco/stats-sid: {stats:?}");

    // Half a request, then silence until the read timeout.
    let (stats_before, metrics_before) = error_counts(&mut client);
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"STA").unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match proto::read_response(&mut BufReader::new(loris)).unwrap() {
        Response::Err(e) => assert_eq!(e.code, ErrCode::Timeout, "{e}"),
        Response::Ok { head, .. } => panic!("unexpected OK {head}"),
    }
    // The first connection idled past the read timeout meanwhile.
    let mut client = Client::connect(addr).unwrap();
    let (stats_after, metrics_after) = error_counts(&mut client);
    assert_eq!(
        stats_after - stats_before,
        1,
        "STATS counts the ERR TIMEOUT"
    );
    assert_eq!(
        (metrics_after - metrics_before) as i64,
        stats_after - stats_before,
        "errors: STATS and METRICS disagree"
    );

    // Closing a session keeps its requests in the totals.
    let before = session_totals(&mut client);
    client.close_session(sid).unwrap();
    assert_eq!(session_totals(&mut client), before, "after CLOSE");

    // So does evicting one: the fifth OPEN evicts the routed session.
    let gcl = demo_gcl();
    let open = |client: &mut Client| {
        client
            .open(EngineKind::Gridless, PlaneIndexKind::Sharded, &gcl)
            .unwrap()
    };
    let (victim, _) = open(&mut client);
    client.route(victim, false).unwrap();
    for _ in 0..3 {
        open(&mut client);
    }
    let before = session_totals(&mut client);
    let (_, reply) = open(&mut client);
    assert_eq!(reply.int_field("evicted"), Some(victim as i64));
    assert_eq!(session_totals(&mut client), before, "after eviction");

    // A panicked request counts, and quarantining or then closing its
    // session takes nothing back.
    let (crashed, _) = open(&mut client);
    let before = session_totals(&mut client);
    match client.request(&Request::Crash { sid: crashed }).unwrap() {
        Response::Err(e) => assert_eq!(e.code, ErrCode::Quarantined, "{e}"),
        Response::Ok { head, .. } => panic!("unexpected OK {head}"),
    }
    let quarantined = session_totals(&mut client);
    assert_eq!(quarantined.0, before.0 + 1, "the CRASH request counts");
    assert!(quarantined.1 >= before.1, "wall time never falls");
    client.close_session(crashed).unwrap();
    assert_eq!(session_totals(&mut client), quarantined, "after CLOSE");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// After real routing traffic the exposition must carry the key series
/// end to end: request counts, the latency histogram and the search
/// core (the same check CI's service-smoke job greps over the wire).
#[test]
fn metrics_exposition_carries_the_key_series() {
    let _guard = telemetry_lock();
    let (addr, handle) = spawn_server(ServerConfig {
        capacity: 4,
        workers: 2,
        slow_log_ms: 1, // a cold route takes >1ms: the slow log fires
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let layout = gcr::workload::generator::generate(
        &gcr::workload::generator::GeneratorParams::with_nets(60, 11),
    );
    let gcl = gcr::layout::format::write(&layout);
    let (sid, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Sharded, &gcl)
        .unwrap();
    let before = parse_exposition(&client.metrics().unwrap().body);
    client.route(sid, false).unwrap();
    let scrape = client.metrics().unwrap();
    let after = parse_exposition(&scrape.body);

    let delta = |name: &str, labels: &[(&str, &str)]| {
        series_value(&after, name, labels) - series_value(&before, name, labels)
    };
    assert_eq!(delta("gcr_service_requests_total", &[("verb", "route")]), 1);
    let route_hist = histogram_buckets(&after, "gcr_service_request_us", &[("verb", "route")]);
    assert!(
        route_hist.last().is_some_and(|&(_, total)| total >= 1),
        "route latency histogram is empty: {scrape:?}"
    );
    assert!(
        delta("gcr_search_expansions_total", &[]) > 0,
        "routing 60 nets must expand search nodes"
    );
    assert!(
        delta("gcr_service_slow_requests_total", &[]) >= 1,
        "a cold 60-net route takes over 1ms; the slow log must record it"
    );
    assert_eq!(
        delta("gcr_core_session_reroutes_total", &[]),
        0,
        "a cold route is not a reroute"
    );

    client.close_session(sid).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The load generator against a live daemon: every request accounted,
/// and the client-side histogram agrees with the server's `METRICS`
/// view of the same traffic — exact on the count, within one bucket on
/// the quantiles (reroute is compute-dominated, so client RTT and
/// server dispatch time land in the same or adjacent buckets). The run
/// is large enough that every compared quantile has at least 10
/// samples beyond it, so no single client-side stall decides a bucket.
#[test]
fn loadgen_agrees_with_the_server_metrics() {
    const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];
    const CLIENTS: u64 = 2;
    const PER_CLIENT: u64 = 500;
    let requests = CLIENTS * PER_CLIENT;
    for q in QUANTILES {
        assert!(
            (1.0 - q) * requests as f64 >= 10.0,
            "q{q} needs 10 samples beyond it"
        );
    }
    let _guard = telemetry_lock();
    let (addr, handle) = spawn_server(ServerConfig {
        capacity: 8,
        workers: 4,
        ..ServerConfig::default()
    });
    let mut probe = Client::connect(addr).unwrap();
    let before = parse_exposition(&probe.metrics().unwrap().body);

    let config = loadgen::LoadGenConfig {
        addr: addr.to_string(),
        clients: CLIENTS as usize,
        requests_per_client: PER_CLIENT,
        nets: 120,
        seed: 3,
        engine: EngineKind::Gridless,
        index: PlaneIndexKind::Sharded,
        kind: loadgen::LoadKind::Reroute,
    };
    let report = loadgen::run(&config).unwrap();
    assert_eq!(
        report.requests, requests,
        "every closed-loop request completed"
    );
    assert_eq!(report.errors, 0, "no ERR replies under a clean run");
    assert!(report.req_per_s > 0.0);

    let after = parse_exposition(&probe.metrics().unwrap().body);
    let eco = |samples: &[Sample]| {
        series_value(samples, "gcr_service_requests_total", &[("verb", "eco")])
    };
    assert_eq!(
        eco(&after) - eco(&before),
        requests,
        "server counted every eco"
    );

    // Quantile cross-check on the run's own traffic: subtract the
    // pre-run cumulative buckets, then compare bucket indexes.
    let hist_before = histogram_buckets(&before, "gcr_service_request_us", &[("verb", "eco")]);
    let hist_after = histogram_buckets(&after, "gcr_service_request_us", &[("verb", "eco")]);
    let run_buckets: Vec<(f64, u64)> = hist_after
        .iter()
        .enumerate()
        .map(|(i, &(le, cum))| {
            let prior = hist_before.get(i).map_or(0, |&(_, c)| c);
            (le, cum - prior)
        })
        .collect();
    for q in QUANTILES {
        let client_idx = report.latency.quantile_bucket(q).unwrap();
        let server_idx = quantile_bucket_index(&run_buckets, q).unwrap();
        assert!(
            client_idx.abs_diff(server_idx) <= 1,
            "q{q}: client bucket {client_idx} vs server bucket {server_idx}"
        );
    }

    probe.shutdown().unwrap();
    handle.join().unwrap();
}

/// The tracing differential: an explicit `TRACE ROUTE` must attribute
/// exactly the work the registry counts. The `expanded` total over the
/// tree's `search` leaves equals the `gcr_search_expansions_total`
/// delta for the same request (both sinks read one `SearchStats`, see
/// `gcr-search`'s flush point), the per-net rollups agree with the
/// leaves under them, and every child span nests inside its parent's
/// interval — the tree is a real decomposition of the request, not a
/// sample of it.
#[test]
fn traced_route_spans_agree_with_the_registry() {
    let _guard = telemetry_lock();
    let (addr, handle) = spawn_server(ServerConfig {
        capacity: 4,
        workers: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let layout = gcr::workload::generator::generate(
        &gcr::workload::generator::GeneratorParams::with_nets(60, 11),
    );
    let gcl = gcr::layout::format::write(&layout);
    let (sid, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Sharded, &gcl)
        .unwrap();

    let before = parse_exposition(&client.metrics().unwrap().body);
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
    let after = parse_exposition(&client.metrics().unwrap().body);

    // Head shape: `trace <tid> spans <N>` with a live span count, the
    // inner ROUTE body leading the reply.
    let mut head = reply.head.split_whitespace();
    assert_eq!(head.next(), Some("trace"));
    let tid = head.next().unwrap();
    assert!(tid.starts_with('t'), "trace id token: {tid}");
    assert_eq!(head.next(), Some("spans"));
    let spans: usize = head.next().unwrap().parse().expect("span count");
    assert!(
        spans >= 3,
        "request + op + net spans at least: {}",
        reply.head
    );
    assert_eq!(reply.field("mode"), Some("full"));
    assert_eq!(
        reply.int_field("failed"),
        Some(0),
        "the workload fixture routes clean; the per-net rollup check
         below relies on every net committing"
    );

    let tree = reply.span_tree().expect("span grammar parses back");
    assert_eq!(tree.span_count(), spans, "head count matches the tree");
    assert_eq!(tree.root.name, "request");

    // Differential: attributed expansions equal the registry's view of
    // the same request (the only routing traffic between the scrapes).
    let expansions = |samples: &[Sample]| series_value(samples, "gcr_search_expansions_total", &[]);
    let delta = expansions(&after) - expansions(&before);
    let from_leaves: u64 = tree
        .find_all("search")
        .iter()
        .filter_map(|n| n.counter("expanded"))
        .sum();
    assert!(delta > 0, "routing 60 nets must expand search nodes");
    assert_eq!(
        from_leaves, delta,
        "span-attributed expansions vs registry delta"
    );
    // And the per-net rollups carry the same totals as the search
    // leaves recorded under them.
    let from_nets: u64 = tree
        .find_all("net")
        .iter()
        .filter_map(|n| n.counter("expanded"))
        .sum();
    assert_eq!(from_nets, from_leaves, "net rollups vs search leaves");

    // Interval containment: children start and end inside their parent
    // (every timestamp is an offset from the one request epoch).
    fn assert_nested(parent: &SpanNode) {
        for child in &parent.children {
            assert!(
                child.start_us >= parent.start_us,
                "{}/{} starts before its parent {}/{}",
                child.name,
                child.label,
                parent.name,
                parent.label
            );
            assert!(
                child.start_us + child.dur_us <= parent.start_us + parent.dur_us,
                "{}/{} ends after its parent {}/{}",
                child.name,
                child.label,
                parent.name,
                parent.label
            );
            assert_nested(child);
        }
    }
    assert_nested(&tree.root);

    client.close_session(sid).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}
