//! Large-die scaling tier: per-phase timings at 120 / 1k / 10k nets on
//! the parametric generator's instances, written as `BENCH_scale.json`
//! at the repository root (CI publishes the same numbers to the job
//! summary).
//!
//! Phases per tier:
//!
//! * **build** — constructing an indexed plane from the tier's cell
//!   rectangles: one-at-a-time sorted insertion (`build_incremental`,
//!   the pre-PR bulk-loading path, O(N) memmove per insert) vs the
//!   batch path (`build_bulk`, [`Plane::with_obstacles`], one sort).
//!   A dedicated 10k-obstacle instance anchors the headline ratio.
//! * **route_cold** — serial `route_all` on a fresh session, flat and
//!   sharded. (Rows named `route_cold_delegated` in older
//!   `BENCH_scale.json` runs timed a since-deleted baseline that sent
//!   sharded corner queries through the flat slab scan.)
//! * **reroute_warm** — an ECO drop (one small obstacle) plus
//!   `reroute_dirty` against the still-warm cold-route sessions.
//! * **query_sweep** — seeded raw `ray_hit` + `corner_candidates_into`
//!   probes.
//!
//! Every timed configuration of a tier is asserted byte-identical to
//! the tier's flat reference route, so every number is a time for *the
//! same answer*.
//!
//! `SCALE_TIERS` (comma-separated labels: `10k-obs,120,1k,10k`) selects
//! a subset — CI runs `10k-obs,120,1k` because the 10k-net flat
//! baseline alone costs on the order of an hour on one core; the
//! committed `BENCH_scale.json` records a full manual run.

use std::time::Instant;

use gcr_core::{GlobalRouting, PlaneIndexKind, RouterConfig, RoutingSession};
use gcr_geom::{Dir, Plane, PlaneIndex, Point, Rect, ShardedPlane};
use gcr_workload::generator::{generate, GeneratorParams};
use gcr_workload::{random_free_point, rng_for};

/// `(label, nets, timed samples, deep)` — samples shrink as tiers grow
/// so the whole bench stays in CI budget. `deep` tiers take several
/// cold-route samples; the 10k tier routes each configuration exactly
/// once (a full 10k-net route is minutes).
const TIERS: &[(&str, usize, usize, bool)] = &[
    ("120", 120, 10, true),
    ("1k", 1000, 5, true),
    ("10k", 10_000, 2, false),
];

/// Probes per query sweep (each probe casts 4 rays and enumerates the
/// corner candidates of each).
const SWEEP_PROBES: usize = 1500;

struct Measurement {
    mean_ms: f64,
    min_ms: f64,
    expanded: Option<usize>,
}

impl Measurement {
    fn from_times(times: &[f64], expanded: Option<usize>) -> Measurement {
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        Measurement {
            mean_ms: mean * 1e3,
            min_ms: min * 1e3,
            expanded,
        }
    }

    fn expansions_per_sec(&self) -> Option<f64> {
        self.expanded
            .map(|e| e as f64 / (self.min_ms / 1e3).max(1e-12))
    }
}

fn time_samples(samples: usize, mut f: impl FnMut() -> Option<usize>) -> Measurement {
    let mut times = Vec::with_capacity(samples);
    let mut expanded = None;
    for _ in 0..samples {
        let start = Instant::now();
        expanded = f();
        times.push(start.elapsed().as_secs_f64());
    }
    Measurement::from_times(&times, expanded)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn row(tier: &str, nets: usize, index: &str, phase: &str, m: &Measurement) -> String {
    let extra = match (m.expanded, m.expansions_per_sec()) {
        (Some(e), Some(eps)) => {
            format!(", \"expanded\": {e}, \"expansions_per_sec\": {eps:.0}")
        }
        _ => String::new(),
    };
    format!(
        "    {{\"tier\": \"{}\", \"nets\": {}, \"index\": \"{}\", \"phase\": \"{}\", \
         \"mean_ms\": {:.3}, \"min_ms\": {:.3}{}}}",
        json_escape(tier),
        nets,
        json_escape(index),
        json_escape(phase),
        m.mean_ms,
        m.min_ms,
        extra
    )
}

fn print_row(tier: &str, index: &str, phase: &str, m: &Measurement) {
    let eps = m
        .expansions_per_sec()
        .map_or(String::new(), |e| format!("  {e:>12.0} expansions/s"));
    println!(
        "scale/{tier:<4} {index:<9} {phase:<22} mean {:>10.2} ms  min {:>10.2} ms{eps}",
        m.mean_ms, m.min_ms
    );
}

fn assert_identical(a: &GlobalRouting, b: &GlobalRouting, what: &str) {
    assert_eq!(a.wire_length(), b.wire_length(), "{what}: wire length");
    assert_eq!(a.stats(), b.stats(), "{what}: stats");
    for (ra, rb) in a.routes.iter().zip(&b.routes) {
        for (ca, cb) in ra.connections.iter().zip(&rb.connections) {
            assert_eq!(ca.polyline, cb.polyline, "{what}: net {}", ra.net);
        }
    }
}

/// A fresh serial session over `layout`.
fn session(layout: &gcr_layout::Layout, index: PlaneIndexKind) -> RoutingSession {
    RoutingSession::builder(layout.clone())
        .config(RouterConfig::default())
        .index(index)
        .serial()
        .build()
}

/// The incremental-insert baseline: every insert maintains the sorted
/// face lists in place (O(N) memmove each), which is what bulk-loading
/// an indexed plane cost before [`Plane::add_obstacles`].
fn build_incremental(bounds: Rect, rects: &[Rect]) -> Plane {
    let mut plane = Plane::new(bounds);
    plane.build_index();
    for &r in rects {
        plane.add_obstacle(r);
    }
    plane
}

fn bench_build(
    tier: &str,
    nets: usize,
    bounds: Rect,
    rects: &[Rect],
    samples: usize,
    rows: &mut Vec<String>,
) {
    // Same geometry either way (ids, rects and index answers).
    let incremental = build_incremental(bounds, rects);
    let bulk = Plane::with_obstacles(bounds, rects);
    assert_eq!(incremental.rects(), bulk.rects(), "{tier}: build parity");

    let m_inc = time_samples(samples, || {
        let p = build_incremental(bounds, rects);
        std::hint::black_box(&p);
        None
    });
    let m_bulk = time_samples(samples, || {
        let p = Plane::with_obstacles(bounds, rects);
        std::hint::black_box(&p);
        None
    });
    print_row(tier, "flat", "build_incremental", &m_inc);
    print_row(tier, "flat", "build_bulk", &m_bulk);
    println!(
        "scale/{tier:<4} build speedup: {:.1}x over {} obstacles",
        m_inc.min_ms / m_bulk.min_ms.max(1e-9),
        rects.len()
    );
    rows.push(row(tier, nets, "flat", "build_incremental", &m_inc));
    rows.push(row(tier, nets, "flat", "build_bulk", &m_bulk));
}

fn bench_query_sweep(
    tier: &str,
    nets: usize,
    layout: &gcr_layout::Layout,
    samples: usize,
    rows: &mut Vec<String>,
) {
    let flat = layout.to_plane();
    let sharded = ShardedPlane::new(flat.clone());

    // Seeded probe set, shared by every implementation.
    let mut rng = rng_for("scale-sweep", 0);
    let probes: Vec<Point> = (0..SWEEP_PROBES)
        .map(|_| random_free_point(&flat, &mut rng))
        .collect();

    // Differential: both agree on every probe before any timing.
    let mut a = Vec::new();
    let mut b = Vec::new();
    for &p in &probes[..probes.len().min(200)] {
        for dir in [Dir::East, Dir::West, Dir::North, Dir::South] {
            let hit = flat.ray_hit(p, dir);
            assert_eq!(hit, sharded.ray_hit(p, dir), "{tier}: ray {p} {dir:?}");
            flat.corner_candidates_into(p, dir, hit.stop, &mut a);
            sharded.corner_candidates_into(p, dir, hit.stop, &mut b);
            assert_eq!(a, b, "{tier}: corners {p} {dir:?}");
        }
    }

    let mut out = Vec::new();
    let mut sweep = |plane: &dyn PlaneIndex| {
        let mut total = 0usize;
        for &p in &probes {
            for dir in [Dir::East, Dir::West, Dir::North, Dir::South] {
                let hit = plane.ray_hit(p, dir);
                plane.corner_candidates_into(p, dir, hit.stop, &mut out);
                total += out.len();
            }
        }
        std::hint::black_box(total);
    };
    let m_flat = time_samples(samples, || {
        sweep(&flat);
        None
    });
    let m_sharded = time_samples(samples, || {
        sweep(&sharded);
        None
    });
    print_row(tier, "flat", "query_sweep", &m_flat);
    print_row(tier, "sharded", "query_sweep", &m_sharded);
    rows.push(row(tier, nets, "flat", "query_sweep", &m_flat));
    rows.push(row(tier, nets, "sharded", "query_sweep", &m_sharded));
}

fn main() {
    let mut rows = Vec::new();

    // `SCALE_TIERS=120,1k` (comma-separated labels; `10k-obs` is the
    // headline build instance) restricts the run for quick local
    // iteration; unset runs everything.
    let only = std::env::var("SCALE_TIERS").ok();
    let selected = |t: &str| {
        only.as_deref()
            .is_none_or(|s| s.split(',').any(|x| x.trim() == t))
    };

    // Headline build ratio on exactly 10k obstacles (a fully filled
    // 100×100 slot grid), independent of the routing tiers.
    if selected("10k-obs") {
        let params = GeneratorParams {
            rows: 100,
            cols: 100,
            fill: 1.0,
            nets: 1,
            ..GeneratorParams::default()
        };
        let layout = generate(&params);
        let rects: Vec<Rect> = layout.cells().iter().map(|c| c.rect()).collect();
        assert_eq!(rects.len(), 10_000);
        bench_build("10k-obs", 0, layout.bounds(), &rects, 3, &mut rows);
    }

    for &(tier, nets, samples, deep) in TIERS {
        if !selected(tier) {
            continue;
        }
        let layout = generate(&GeneratorParams::with_nets(nets, 0));
        let rects: Vec<Rect> = layout.cells().iter().map(|c| c.rect()).collect();
        println!(
            "scale/{tier}: {} cells, {} nets, die {}",
            rects.len(),
            layout.nets().len(),
            layout.bounds()
        );

        bench_build(tier, nets, layout.bounds(), &rects, samples, &mut rows);

        // Differential + cold end-to-end route. The first (flat) run's
        // output is the byte-identity reference for every other
        // configuration, and each cold session is kept for the warm ECO
        // phase — so even the 10k tier pays exactly one full route per
        // configuration.
        let route_samples = if deep { samples } else { 1 };
        let mut reference: Option<GlobalRouting> = None;
        let mut warm: Vec<(&str, RoutingSession)> = Vec::new();
        for (index, kind) in [
            ("flat", PlaneIndexKind::Flat),
            ("sharded", PlaneIndexKind::Sharded),
        ] {
            let mut kept = None;
            let m = time_samples(route_samples, || {
                let mut s = session(&layout, kind);
                let routing = s.route_all();
                let expanded = routing.stats().expanded;
                kept = Some((s, routing));
                Some(expanded)
            });
            let (s, routing) = kept.take().expect("at least one sample");
            match &reference {
                None => reference = Some(routing),
                Some(r) => assert_identical(r, &routing, &format!("{tier}/{index}/route_cold")),
            }
            warm.push((index, s));
            print_row(tier, index, "route_cold", &m);
            rows.push(row(tier, nets, index, "route_cold", &m));
        }

        // Warm ECO loop: drop one small obstacle into free space and
        // re-route exactly the invalidated neighborhood, against the
        // still-warm cold-route sessions.
        for (index, mut s) in warm {
            let mut rng = rng_for("scale-eco", 0);
            let bounds = layout.bounds();
            let mut eco = 0usize;
            let m = time_samples(samples, || {
                let p = random_free_point(s.plane(), &mut rng);
                let x = p.x.clamp(bounds.xmin(), bounds.xmax() - 2);
                let y = p.y.clamp(bounds.ymin(), bounds.ymax() - 2);
                let rect = Rect::new(x, y, x + 2, y + 2).expect("in bounds");
                eco += 1;
                let start_dirty = {
                    s.add_obstacle(format!("eco{eco}"), rect).expect("unique");
                    s.stats().dirty
                };
                let outcome = s.reroute_dirty();
                assert_eq!(outcome.attempted, start_dirty);
                None
            });
            print_row(tier, index, "reroute_warm", &m);
            rows.push(row(tier, nets, index, "reroute_warm", &m));
        }

        bench_query_sweep(tier, nets, &layout, samples, &mut rows);
    }

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let json = format!(
        "{{\n  \"bench\": \"scale-tier\",\n  \"unit\": \"ms\",\n  \
         \"sweep_probes\": {SWEEP_PROBES},\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = root.join("BENCH_scale.json");
    std::fs::write(&path, &json).expect("write BENCH_scale.json");
    println!("wrote {}", path.display());
}
