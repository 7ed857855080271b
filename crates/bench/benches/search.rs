//! Search-core throughput tracker: end-to-end serial gridless session
//! route times and A\* expansion rates on the workload scaling instances, over
//! both plane indexes, written as machine-readable `BENCH_search.json`
//! at the repository root so successive PRs can record the perf
//! trajectory (CI publishes the same numbers to the job summary).
//!
//! Before any timing, the harness asserts the differential invariants of
//! the zero-allocation refactor on each instance: flat ≡ sharded output
//! and `route_all` (one reused arena) ≡ net-by-net routing on a fresh
//! session.
//! Every number in the JSON is therefore a time for *the same answer*.

use std::time::Instant;

use gcr_core::{BatchConfig, GlobalRouting, PlaneIndexKind, RouterConfig, RoutingSession};
use gcr_workload::scaling_instance;

/// `(label, rows, cols, two-pin nets, multi-terminal nets)` — the same
/// scaling family `benches/{scaling,parallel,sharded}.rs` use; the last
/// entry is the acceptance instance (120 nets on a 6×6 macro grid).
const SCALES: &[(&str, usize, usize, usize, usize)] = &[
    ("2x2-30", 2, 2, 24, 6),
    ("4x4-60", 4, 4, 48, 12),
    ("6x6-120", 6, 6, 96, 24),
];

/// Timed samples per configuration (mean and min are both recorded; the
/// min is the steady-state number, the mean absorbs scheduler noise).
const SAMPLES: usize = 10;

struct Measurement {
    mean_ms: f64,
    min_ms: f64,
    expanded: usize,
    expansions_per_sec: f64,
}

fn time_route_all(session: &mut RoutingSession) -> Measurement {
    // Warm-up: one untimed run (warms the pooled arenas, as a
    // long-running service would have them).
    let reference = session.route_all();
    let expanded = reference.stats().expanded;
    let mut times = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        let routing = session.route_all();
        times.push(start.elapsed().as_secs_f64());
        assert_eq!(routing.stats(), reference.stats(), "run must be stable");
    }
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    Measurement {
        mean_ms: mean * 1e3,
        min_ms: min * 1e3,
        expanded,
        expansions_per_sec: expanded as f64 / min,
    }
}

fn assert_identical(a: &GlobalRouting, b: &GlobalRouting, what: &str) {
    assert_eq!(a.wire_length(), b.wire_length(), "{what}: wire length");
    assert_eq!(a.stats(), b.stats(), "{what}: stats");
    assert_eq!(a.routed_count(), b.routed_count(), "{what}: routed count");
    for (ra, rb) in a.routes.iter().zip(&b.routes) {
        for (ca, cb) in ra.connections.iter().zip(&rb.connections) {
            assert_eq!(ca.polyline, cb.polyline, "{what}: net {}", ra.net);
        }
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let mut rows = Vec::new();
    for &(label, r, c, two_pin, multi) in SCALES {
        let layout = scaling_instance(r, c, two_pin, multi, 0);
        let config = RouterConfig::default();
        let session = |index| {
            RoutingSession::builder(layout.clone())
                .config(config.clone())
                .batch(BatchConfig::serial().with_index(index))
                .build()
        };
        let mut flat = session(PlaneIndexKind::Flat);
        let mut sharded = session(PlaneIndexKind::Sharded);

        // Differential preconditions: same answers across indexes, and
        // `route_all` (one reused arena) agrees with net-by-net routing
        // on a fresh session.
        let flat_routing = flat.route_all();
        assert_identical(&flat_routing, &sharded.route_all(), label);
        let mut net_by_net = session(PlaneIndexKind::Flat);
        for route in &flat_routing.routes {
            let fresh = net_by_net.route_net(route.id).expect("route_all routed it");
            assert_eq!(route.stats, fresh.stats, "{label}: net {}", route.net);
        }

        let nets = layout.nets().len();
        let m_flat = time_route_all(&mut flat);
        let m_sharded = time_route_all(&mut sharded);
        for (index, m) in [("flat", &m_flat), ("sharded", &m_sharded)] {
            println!(
                "batch-route/{index}/{label:<10} mean {:8.2} ms  min {:8.2} ms  \
                 {:>9} expansions  {:>12.0} expansions/s",
                m.mean_ms, m.min_ms, m.expanded, m.expansions_per_sec
            );
            rows.push(format!(
                concat!(
                    "    {{\"instance\": \"{}\", \"nets\": {}, \"index\": \"{}\", ",
                    "\"mean_ms\": {:.3}, \"min_ms\": {:.3}, \"expanded\": {}, ",
                    "\"expansions_per_sec\": {:.0}}}"
                ),
                json_escape(label),
                nets,
                index,
                m.mean_ms,
                m.min_ms,
                m.expanded,
                m.expansions_per_sec
            ));
        }
    }

    // The bench binary runs from the workspace target dir; the JSON
    // lands at the repo root (CARGO_MANIFEST_DIR = crates/bench).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let json = format!(
        "{{\n  \"bench\": \"search-throughput\",\n  \"unit\": \"ms-serial-gridless-batch\",\n  \
         \"samples\": {SAMPLES},\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = root.join("BENCH_search.json");
    std::fs::write(&path, &json).expect("write BENCH_search.json");
    println!("wrote {}", path.display());
}
