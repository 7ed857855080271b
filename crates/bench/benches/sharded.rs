//! Flat vs sharded connection-query throughput on the largest workload
//! scaling instance, plus the end-to-end batch route through both plane
//! indexes. Answers are asserted identical before timing, so every
//! speedup is for *the same answer*.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcr_core::{BatchConfig, BatchRouter, RouterConfig};
use gcr_geom::{Dir, Plane, PlaneIndex, Point, ShardedPlane};
use gcr_workload::scaling_instance;

/// The largest instance of the scaling family (also used by
/// `benches/parallel.rs`).
fn largest() -> gcr_layout::Layout {
    scaling_instance(6, 6, 96, 24, 0)
}

/// A deterministic set of legal ray origins: every free Hanan corner
/// crossing of the plane (the coordinates the gridless search actually
/// visits).
fn probes(plane: &Plane) -> Vec<Point> {
    let xs = Plane::corner_coords(plane, gcr_geom::Axis::X);
    let ys = Plane::corner_coords(plane, gcr_geom::Axis::Y);
    let mut out = Vec::new();
    for &x in &xs {
        for &y in &ys {
            let p = Point::new(x, y);
            if Plane::point_free(plane, p) {
                out.push(p);
            }
        }
    }
    out
}

fn ray_sweep(ix: &dyn PlaneIndex, probes: &[Point]) -> i64 {
    let mut acc = 0;
    for &p in probes {
        for dir in Dir::ALL {
            acc += ix.ray_hit(p, dir).distance;
        }
    }
    acc
}

fn segment_sweep(ix: &dyn PlaneIndex, probes: &[Point]) -> usize {
    let mut free = 0;
    for w in probes.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a.x == b.x || a.y == b.y {
            free += usize::from(ix.segment_free(a, b));
        } else {
            // Bend the probe pair into an L.
            let corner = Point::new(a.x, b.y);
            free += usize::from(ix.segment_free(a, corner));
            free += usize::from(ix.segment_free(corner, b));
        }
    }
    free
}

fn bench_queries(c: &mut Criterion) {
    let layout = largest();
    let flat = layout.to_plane();
    let sharded = ShardedPlane::new(layout.to_plane());
    let probes = probes(&flat);
    // The answers are the benchmark's precondition.
    assert_eq!(ray_sweep(&flat, &probes), ray_sweep(&sharded, &probes));
    assert_eq!(
        segment_sweep(&flat, &probes),
        segment_sweep(&sharded, &probes)
    );

    let mut group = c.benchmark_group("ray-sweep");
    let n = probes.len() * 4;
    group.bench_with_input(BenchmarkId::new("flat", n), &(), |b, ()| {
        b.iter(|| ray_sweep(&flat, &probes))
    });
    group.bench_with_input(BenchmarkId::new("sharded", n), &(), |b, ()| {
        b.iter(|| ray_sweep(&sharded, &probes))
    });
    group.finish();

    let mut group = c.benchmark_group("segment-sweep");
    group.bench_with_input(BenchmarkId::new("flat", probes.len()), &(), |b, ()| {
        b.iter(|| segment_sweep(&flat, &probes))
    });
    group.bench_with_input(BenchmarkId::new("sharded", probes.len()), &(), |b, ()| {
        b.iter(|| segment_sweep(&sharded, &probes))
    });
    group.finish();
}

fn bench_batch_route(c: &mut Criterion) {
    let layout = largest();
    let config = RouterConfig::default();
    let flat = BatchRouter::gridless(&layout, config.clone()).with_batch(BatchConfig::serial());
    let sharded = BatchRouter::gridless(&layout, config)
        .with_batch(BatchConfig::serial().with_index(gcr_core::PlaneIndexKind::Sharded));
    let a = flat.route_all();
    let b = sharded.route_all();
    assert_eq!(a.wire_length(), b.wire_length());
    assert_eq!(a.stats(), b.stats());

    let nets = layout.nets().len();
    let mut group = c.benchmark_group("batch-route");
    group.bench_with_input(BenchmarkId::new("flat", nets), &(), |bch, ()| {
        bch.iter(|| flat.route_all())
    });
    group.bench_with_input(BenchmarkId::new("sharded", nets), &(), |bch, ()| {
        bch.iter(|| sharded.route_all())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(2500))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_queries, bench_batch_route
}
criterion_main!(benches);
