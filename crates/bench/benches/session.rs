//! Session-warmth tracker: what does the owned, incremental
//! [`RoutingSession`] buy over a cold one-shot route?
//!
//! For each workload scaling instance the harness times
//!
//! * **cold-full** — building a fresh session and routing every net
//!   (index construction + cold arenas, the one-shot batch workload),
//!   and
//! * **warm-reroute** — ripping up one committed net and
//!   [`reroute_dirty`](gcr_core::RoutingSession::reroute_dirty)-ing it
//!   inside a long-lived session (warm plane index, pooled search
//!   arenas),
//!
//! over both plane indexes, and writes machine-readable
//! `BENCH_session.json` at the repository root (CI publishes it to the
//! job summary next to `BENCH_search.json`). Before timing, the harness
//! asserts the incremental invariant on each instance: rip-up + reroute
//! commits byte-identical state to the fresh route, so every number is a
//! time for *the same answer*.
//!
//! The JSON also carries a **dirty-tracking note**: for obstacle drops
//! on the acceptance instance, how many nets the conservative
//! bounding-box test marks dirty versus the exact segment-vs-rect test
//! (`SessionBuilder::precise_dirty`), and what each reroute then costs.
//! The precise test stays opt-in until this note shows a consistent
//! reroute-set shrink.

use std::time::Instant;

use gcr_core::{BatchConfig, PlaneIndexKind, RouterConfig, RoutingSession};
use gcr_workload::scaling_instance;

/// Same scaling family as `benches/{scaling,parallel,sharded,search}.rs`;
/// the last entry is the acceptance instance (120 nets on a 6×6 grid).
const SCALES: &[(&str, usize, usize, usize, usize)] = &[
    ("2x2-30", 2, 2, 24, 6),
    ("4x4-60", 4, 4, 48, 12),
    ("6x6-120", 6, 6, 96, 24),
];

const SAMPLES: usize = 10;

struct Measurement {
    mean_ms: f64,
    min_ms: f64,
}

fn stats(times: &[f64]) -> Measurement {
    Measurement {
        mean_ms: times.iter().sum::<f64>() / times.len() as f64 * 1e3,
        min_ms: times.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
    }
}

fn main() {
    let mut rows = Vec::new();
    for &(label, r, c, two_pin, multi) in SCALES {
        let layout = scaling_instance(r, c, two_pin, multi, 0);
        let nets = layout.nets().len();
        for (index, index_label) in [
            (PlaneIndexKind::Flat, "flat"),
            (PlaneIndexKind::Sharded, "sharded"),
        ] {
            let batch = BatchConfig::serial().with_index(index);
            let build = || {
                RoutingSession::builder(layout.clone())
                    .config(RouterConfig::default())
                    .batch(batch)
                    .build()
            };

            // Correctness precondition: rip-up + reroute inside a warm
            // session ≡ the fresh route, byte for byte.
            let mut warm = build();
            let fresh = warm.route_all();
            let victim = *warm.layout().net_ids().last().expect("instance has nets");
            assert!(warm.rip_up(victim));
            let outcome = warm.reroute_dirty();
            assert_eq!(outcome.attempted, 1, "{label}");
            let again = warm.routing();
            assert_eq!(fresh.wire_length(), again.wire_length(), "{label}");
            assert_eq!(fresh.stats(), again.stats(), "{label}");

            // Cold-full: fresh session (index build + cold arenas) and a
            // complete route, per sample.
            let mut cold_times = Vec::with_capacity(SAMPLES);
            for _ in 0..SAMPLES {
                let start = Instant::now();
                let mut session = build();
                let routing = session.route_all();
                cold_times.push(start.elapsed().as_secs_f64());
                assert_eq!(routing.stats(), fresh.stats(), "run must be stable");
            }
            let cold = stats(&cold_times);

            // Warm-reroute: one net through the long-lived session.
            let mut warm_times = Vec::with_capacity(SAMPLES);
            for _ in 0..SAMPLES {
                warm.rip_up(victim);
                let start = Instant::now();
                let outcome = warm.reroute_dirty();
                warm_times.push(start.elapsed().as_secs_f64());
                assert_eq!(outcome.rerouted, 1, "{label}: victim must reroute");
            }
            assert_eq!(warm.routing().stats(), fresh.stats(), "warm state stable");
            let warm_m = stats(&warm_times);

            let speedup = cold.min_ms / warm_m.min_ms;
            for (mode, m) in [("cold-full", &cold), ("warm-reroute", &warm_m)] {
                println!(
                    "session/{index_label}/{label:<10} {mode:<12} mean {:9.3} ms  min {:9.3} ms",
                    m.mean_ms, m.min_ms
                );
                rows.push(format!(
                    concat!(
                        "    {{\"instance\": \"{}\", \"nets\": {}, \"index\": \"{}\", ",
                        "\"mode\": \"{}\", \"mean_ms\": {:.4}, \"min_ms\": {:.4}}}"
                    ),
                    label, nets, index_label, mode, m.mean_ms, m.min_ms
                ));
            }
            println!(
                "session/{index_label}/{label:<10} warm single-net reroute is {speedup:.0}x \
                 cheaper than a cold full route"
            );
            assert!(
                warm_m.min_ms < cold.min_ms,
                "{label}/{index_label}: a warm single-net reroute must beat a cold full route"
            );
        }
    }

    // Dirty-tracking note: bbox vs precise reroute sets on the
    // acceptance instance, for obstacle drops across the die.
    let mut dirty_rows = Vec::new();
    {
        let (label, r, c, two_pin, multi) = *SCALES.last().expect("scales");
        let layout = scaling_instance(r, c, two_pin, multi, 0);
        let bounds = layout.bounds();
        for (i, (fx, fy)) in [(0.30, 0.30), (0.50, 0.55), (0.72, 0.40)]
            .iter()
            .enumerate()
        {
            let x = bounds.xmin() + ((bounds.width() as f64) * fx) as i64;
            let y = bounds.ymin() + ((bounds.height() as f64) * fy) as i64;
            let blk = gcr_geom::Rect::new(x, y, x + 4, y + 4).expect("probe rect");
            let mut counts = [0usize; 2];
            let mut reroute_ms = [0f64; 2];
            for (mode, precise) in [(0usize, false), (1usize, true)] {
                let mut session = RoutingSession::builder(layout.clone())
                    .config(RouterConfig::default())
                    .batch(BatchConfig::serial())
                    .precise_dirty(precise)
                    .build();
                session.route_all();
                session
                    .add_obstacle(format!("probe{i}"), blk)
                    .expect("unique probe name");
                counts[mode] = session.dirty_nets().len();
                let start = Instant::now();
                session.reroute_dirty();
                reroute_ms[mode] = start.elapsed().as_secs_f64() * 1e3;
            }
            assert!(
                counts[1] <= counts[0],
                "precise dirty set must never exceed the bbox set"
            );
            println!(
                "session/dirty/{label} probe{i} at ({x},{y}): bbox {} net(s) \
                 ({:.3} ms) vs precise {} net(s) ({:.3} ms)",
                counts[0], reroute_ms[0], counts[1], reroute_ms[1]
            );
            dirty_rows.push(format!(
                concat!(
                    "    {{\"instance\": \"{}\", \"probe\": [{}, {}, {}, {}], ",
                    "\"dirty_bbox\": {}, \"dirty_precise\": {}, ",
                    "\"reroute_bbox_ms\": {:.4}, \"reroute_precise_ms\": {:.4}}}"
                ),
                label,
                blk.xmin(),
                blk.ymin(),
                blk.xmax(),
                blk.ymax(),
                counts[0],
                counts[1],
                reroute_ms[0],
                reroute_ms[1]
            ));
        }
    }

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let json = format!(
        "{{\n  \"bench\": \"session-warmth\",\n  \"unit\": \"ms\",\n  \"samples\": {SAMPLES},\n  \
         \"results\": [\n{}\n  ],\n  \"dirty_tracking\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        dirty_rows.join(",\n")
    );
    let path = root.join("BENCH_session.json");
    std::fs::write(&path, &json).expect("write BENCH_session.json");
    println!("wrote {}", path.display());
}
